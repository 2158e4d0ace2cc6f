#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run one workload; print every metric by name with its unit and sample
count, then one JSON result line (the last line of standard output):

  python3 perfbench/run.py --workload serve_drift --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, --trace 1
the per-layer ones (spans plus the layer ladder). The first run builds
the library and the load generator from the checkout's sources into
.bench_build/; reports and span files go to .bench_out/.

  python3 perfbench/run.py --selftest
      build, then run the benchmark's own tests
  python3 perfbench/run.py --compare A.json[,A2.json...] B.json[,B2.json...]
      medians of two sets of reports side by side; refuses when their
      host/build fingerprints differ

Run from the root of a checkout. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Fingerprint fields two reports must share to be compared.
COMPARABLE = ("cpu_model", "nproc", "clocksource", "compiler", "build_type",
              "sepe_options", "cpu_features", "jit_available", "bench_digest")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code (124 on
    timeout, after the child has been killed and reaped)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 124


def build():
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("no SEPE sources here; run from the root of a checkout")
        return False
    if not (BUILD / "CMakeCache.txt").exists():
        rc = run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "perfbench_selftest", "-j", jobs],
                       BUILD_TIMEOUT_S) == 0


def tree_digest(paths):
    """sha256 over the relative paths and contents of regular files."""
    h = hashlib.sha256()
    files = []
    for p in paths:
        p = ROOT / p
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file())
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; one of {', '.join(names)}")
        return 2
    if not build():
        log("build failed")
        return 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = OUT / f"{stem}.json"
    spans_path = OUT / f"{stem}.spans.json"
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--report", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    report_path.unlink(missing_ok=True)
    rc = run_checked(cmd, RUN_TIMEOUT_S)
    if rc != 0 or not report_path.exists():
        log(f"workload {args.workload} failed (exit {rc})")
        return rc or 1
    report = json.loads(report_path.read_text())

    report["fingerprint"].update({
        "git_sha": git_sha(),
        "source_digest": tree_digest(["CMakeLists.txt", "src"]),
        "bench_digest": tree_digest(["BENCHMARK.json", "perfbench"]),
    })
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        log(f"metrics missing or with the wrong unit: {', '.join(missing)}")
        return 1

    fp = report["fingerprint"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} clients={report['clients']}")
    print(f"# host: {fp['cpu_model']}, nproc {fp['nproc']}, clocksource "
          f"{fp['clocksource']}; build: {fp['compiler']} {fp['build_type']} "
          f"[{fp['sepe_options']}]; git {fp['git_sha'] or 'none'}, source "
          f"{fp['source_digest']}, bench {fp['bench_digest']}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples {m['samples']})")
    for name, label in report.get("labels", {}).items():
        print(f"{name}: {label}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"failed_op_share = {failed / max(attempted, 1):.6g} share "
          f"({failed} of {attempted} checks)")
    print(f"# report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def compare(side_a, side_b):
    sides = []
    for arg in (side_a, side_b):
        reports = [json.loads(Path(p).read_text()) for p in arg.split(",")]
        sides.append(reports)
    ref = sides[0][0]
    mismatched = set()
    for r in sides[0] + sides[1]:
        for key in COMPARABLE:
            if r["fingerprint"].get(key) != ref["fingerprint"].get(key):
                mismatched.add(key)
        for key in ("workload", "trace", "seconds"):
            if r[key] != ref[key]:
                mismatched.add(key)
    if mismatched:
        log("refusing to compare: reports differ in "
            + ", ".join(sorted(mismatched)))
        return 2
    for label, reports in zip("AB", sides):
        shas = sorted({r["fingerprint"].get("git_sha") or "none"
                       for r in reports})
        srcs = sorted({r["fingerprint"].get("source_digest") for r in reports})
        print(f"# {label}: {len(reports)} report(s), git {', '.join(shas)}, "
              f"source {', '.join(srcs)}")
    print(f"{'metric':48} {'A median':>14} {'B median':>14} {'B/A-1':>8}")
    for name, m in ref["metrics"].items():
        a = statistics.median(r["metrics"][name]["value"] for r in sides[0])
        b = statistics.median(r["metrics"][name]["value"] for r in sides[1])
        rel = f"{b / a - 1:+.1%}" if a else "n/a"
        print(f"{name:48} {a:14.6g} {b:14.6g} {rel:>8} {m['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        if not build():
            return 1
        return run_checked([str(BUILD / "perfbench_selftest")], RUN_TIMEOUT_S)
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
