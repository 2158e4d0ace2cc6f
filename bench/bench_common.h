//===- bench/bench_common.h - Shared bench-harness plumbing ----*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag parsing and aggregation shared by the per-figure bench
/// binaries. Every binary accepts:
///
///   --full              paper-sized run (10 samples x 10,000
///                       affectations x full spreads)
///   --samples=N         override sample count
///   --affectations=N    override affectations per experiment
///   --keys=A,B,...      restrict to some paper key types
///   --json=PATH         write a machine-readable report (binaries that
///                       support it)
///
/// JSON reports share one envelope (openJsonReport/closeJsonReport):
/// schema_version, the benchmark name, the resolved cpu_features
/// string, the binary's own payload keys, then a "resources" object
/// (peak RSS, user/sys CPU, wall clock of the whole run via
/// support/resource_usage.h) and a trailing "telemetry" object — the
/// full registry dump, whose sections stay empty unless recording is
/// enabled via SEPE_TELEMETRY_ENABLED=1 (never auto-enabled here, so
/// timers cannot perturb the numbers being measured).
///
/// The default ("quick") configuration keeps every binary within tens
/// of seconds on one core while preserving the paper's shape.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_BENCH_BENCH_COMMON_H
#define SEPE_BENCH_BENCH_COMMON_H

#include "driver/experiment.h"
#include "driver/report.h"
#include "support/cpu_features.h"
#include "support/json.h"
#include "support/resource_usage.h"
#include "support/telemetry.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace sepe::bench {

/// Version of the shared bench-JSON envelope; bump when a key is
/// renamed or removed (additions are compatible).
constexpr int JsonSchemaVersion = 1;

struct BenchOptions {
  size_t Samples = 3;
  size_t Affectations = 2000;
  std::vector<size_t> Spreads = {500, 2000};
  std::vector<PaperKey> Keys{AllPaperKeys.begin(), AllPaperKeys.end()};
  bool Full = false;
  /// Empty means "no JSON report".
  std::string JsonPath;
};

inline PaperKey paperKeyByName(const std::string &Name, bool &Ok) {
  Ok = true;
  for (PaperKey Key : AllPaperKeys)
    if (Name == paperKeyName(Key))
      return Key;
  Ok = false;
  return PaperKey::SSN;
}

inline BenchOptions parseBenchOptions(int Argc, char **Argv) {
  BenchOptions Options;
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--full") {
      Options.Full = true;
      Options.Samples = 10;
      Options.Affectations = 10000;
      Options.Spreads = {500, 2000, 10000};
    } else if (Arg.rfind("--samples=", 0) == 0) {
      Options.Samples = std::stoul(Arg.substr(10));
    } else if (Arg.rfind("--affectations=", 0) == 0) {
      Options.Affectations = std::stoul(Arg.substr(15));
    } else if (Arg.rfind("--keys=", 0) == 0) {
      Options.Keys.clear();
      std::string List = Arg.substr(7);
      size_t Pos = 0;
      while (Pos != std::string::npos) {
        const size_t Comma = List.find(',', Pos);
        const std::string Name =
            List.substr(Pos, Comma == std::string::npos ? Comma
                                                        : Comma - Pos);
        bool Ok = false;
        const PaperKey Key = paperKeyByName(Name, Ok);
        if (Ok)
          Options.Keys.push_back(Key);
        else
          std::fprintf(stderr, "warning: unknown key type '%s'\n",
                       Name.c_str());
        Pos = Comma == std::string::npos ? Comma : Comma + 1;
      }
    } else if (Arg.rfind("--json=", 0) == 0) {
      Options.JsonPath = Arg.substr(7);
    } else if (Arg == "--help" || Arg == "-h") {
      std::fprintf(stderr,
                   "options: --full --samples=N --affectations=N "
                   "--keys=SSN,IPv4,... --json=PATH\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "warning: ignoring unknown option '%s'\n",
                   Arg.c_str());
    }
  }
  return Options;
}

inline void printHeader(const char *Artifact, const char *Question,
                        const BenchOptions &Options) {
  std::printf("== %s ==\n%s\n", Artifact, Question);
  std::printf("mode: %s (%zu samples, %zu affectations, %zu key types)\n\n",
              Options.Full ? "full (paper-sized)" : "quick",
              Options.Samples, Options.Affectations, Options.Keys.size());
}

/// Opens \p Path and writes the shared report envelope: the opening
/// brace, schema_version, the benchmark name, and the resolved
/// cpu_features string, leaving a trailing comma so the caller can
/// append its own payload keys (each terminated with ",\n") before
/// closeJsonReport(). Returns nullptr (with a diagnostic) on failure.
inline std::FILE *openJsonReport(const std::string &Path,
                                 const char *Benchmark) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return nullptr;
  }
  std::fprintf(F,
               "{\n  \"schema_version\": %d,\n  \"benchmark\": \"%s\",\n"
               "  \"cpu_features\": \"%s\",\n",
               JsonSchemaVersion, json::escapeString(Benchmark).c_str(),
               json::escapeString(cpuFeatureString()).c_str());
  return F;
}

/// Finishes a report started by openJsonReport(): appends the
/// process-level "resources" section (peak RSS, CPU, wall clock) and
/// the telemetry registry dump as the final keys, then closes the
/// file.
inline void closeJsonReport(std::FILE *F) {
  std::fprintf(F, "  \"resources\": %s,\n",
               ResourceUsage::sinceProcessStart().toJson().c_str());
  std::fprintf(F, "  \"telemetry\": %s\n}\n",
               telemetry::toJson().c_str());
  std::fclose(F);
}

/// One BoxStats as a JSON object — the shared shape for per-hash
/// sample summaries across the fig/table emitters.
inline std::string boxStatsJson(const BoxStats &Stats) {
  char Buffer[192];
  std::snprintf(Buffer, sizeof(Buffer),
                "{\"min\": %.4f, \"q1\": %.4f, \"median\": %.4f, "
                "\"q3\": %.4f, \"max\": %.4f, \"mean\": %.4f, "
                "\"count\": %zu}",
                Stats.Min, Stats.Q1, Stats.Median, Stats.Q3, Stats.Max,
                Stats.Mean, Stats.Count);
  return Buffer;
}

/// Per-hash accumulator across the experiment grid.
struct MetricSamples {
  std::vector<double> BTime;
  std::vector<double> HTime;
  std::vector<double> BColl;
  double TColl = 0;

  void add(const ExperimentResult &Result) {
    BTime.push_back(Result.BTimeMs);
    HTime.push_back(Result.HTimeMs);
    BColl.push_back(static_cast<double>(Result.BucketCollisions));
  }
};

} // namespace sepe::bench

#endif // SEPE_BENCH_BENCH_COMMON_H
