//===- tools/sepebench.cpp - Unified suite runner + perf gate -------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One binary that runs the repo's perf-sensitive workloads — the
/// micro_hash families (single and batch paths), the fig13/fig19/fig20
/// experiment replays, and the FlatIndexMap/LowMixTable probe
/// schedules — with warmup plus repeated trials, robust statistics
/// (median, MAD, coefficient of variation; trials beyond 5 MADs of the
/// median are discarded), and, when `perf_event_open` is usable, a
/// PMU-instrumented pass per workload reporting cycles/key, IPC and
/// miss rates. Everything lands in one consolidated BENCH_suite.json
/// through the shared bench envelope.
///
///   sepebench [--trials=N] [--warmup=N] [--full] [--json=FILE]
///             [--keys=SSN,IPv4,...] [--filter=SUBSTR] [--path=RUNG]
///             [--list]
///
/// The second mode is the regression gate:
///
///   sepebench --compare=BASE.json,NEW.json [--noise-k=K]
///             [--abs-floor=X] [--rel-floor=F]
///
/// which diffs two suite reports with noise-aware thresholds (flag
/// only deltas beyond max(abs floor, k * MAD) and a relative floor)
/// and exits 1 on regression, 2 on malformed/mismatched reports —
/// wired into CI as the soft-fail perf-smoke job.
///
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "container/direct_index_map.h"
#include "container/flat_index_map.h"
#include "container/low_mix_table.h"
#include "container/sharded_index_map.h"
#include "gperf/perfect_hash.h"
#include "mphf/mphf.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "driver/hash_registry.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "quality/avalanche.h"
#include "runtime/adaptive_hash.h"
#include "runtime/serving_table.h"
#include "stats/descriptive.h"
#include "support/bench_compare.h"
#include "support/json.h"
#include "support/perf_counters.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

using namespace sepe;
using namespace sepe::bench;

namespace {

// --- Options ---------------------------------------------------------------

struct SuiteOptions {
  size_t Trials = 5;
  size_t Warmup = 1;
  bool Full = false;
  bool List = false;
  std::string JsonPath = "BENCH_suite.json";
  /// Scorecard sidecar for the quality/* workloads (written only when
  /// at least one of them ran).
  std::string QualityJsonPath = "BENCH_quality.json";
  std::string TracePath;
  std::string Filter;
  /// Pins the synthesized hashers' batch rung for the hash_* and
  /// adaptive workloads; Auto keeps the usual shape/host dispatch.
  BatchPath Path = BatchPath::Auto;
  /// 0: the fixed {1,2,4,8} ladder (stable workload names for the
  /// baseline compare); N: a single-point ladder {N}.
  size_t Threads = 0;
  std::vector<PaperKey> Keys = {PaperKey::SSN, PaperKey::IPv4,
                                PaperKey::URL1};
  // Comparator mode.
  std::string CompareBase, CompareNew;
  CompareThresholds Thresholds;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: sepebench [options]\n"
      "  --trials=N        timed trials per workload (default 5)\n"
      "  --warmup=N        discarded warmup trials (default 1)\n"
      "  --quick           default-sized run (explicit form)\n"
      "  --full            paper-sized run (all 8 key formats, bigger\n"
      "                    workloads)\n"
      "  --keys=SSN,...    restrict the key formats\n"
      "  --filter=REGEX    run only workloads whose name matches REGEX\n"
      "                    (ECMAScript, searched anywhere in the name)\n"
      "  --path=auto|scalar|interleaved|avx2|jit\n"
      "                    pin the synthesized hashers' batch rung\n"
      "                    (default auto; unhonorable pins resolve\n"
      "                    downward like the executor's ladder)\n"
      "  --threads=N       run the shard_scale workloads at N threads\n"
      "                    only (default: the {1,2,4,8} ladder)\n"
      "  --json=FILE       consolidated report (default BENCH_suite.json)\n"
      "  --quality-json=FILE  statistical scorecard for the quality/*\n"
      "                    workloads (default BENCH_quality.json; only\n"
      "                    written when a quality workload ran)\n"
      "  --trace=FILE.json write the flight recorder as Chrome-trace\n"
      "                    JSON after the suite\n"
      "  --list            print workload names and exit\n"
      "comparator mode:\n"
      "  --compare=BASE.json,NEW.json   diff two reports; exit 1 on\n"
      "                    regression, 2 on schema/parse errors\n"
      "  --noise-k=K       MAD multiplier for the noise band (default 3)\n"
      "  --abs-floor=X     absolute delta floor, report units "
      "(default 0.05)\n"
      "  --rel-floor=F     relative delta floor (default 0.05)\n");
}

bool parseSuiteOptions(int Argc, char **Argv, SuiteOptions &Options) {
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (Arg.rfind("--trials=", 0) == 0) {
      Options.Trials = std::max<size_t>(1, std::stoul(Arg.substr(9)));
    } else if (Arg.rfind("--warmup=", 0) == 0) {
      Options.Warmup = std::stoul(Arg.substr(9));
    } else if (Arg == "--quick") {
      Options.Full = false;
    } else if (Arg == "--full") {
      Options.Full = true;
      Options.Keys.assign(AllPaperKeys.begin(), AllPaperKeys.end());
    } else if (Arg.rfind("--keys=", 0) == 0) {
      Options.Keys.clear();
      std::string List = Arg.substr(7);
      size_t Pos = 0;
      while (Pos != std::string::npos) {
        const size_t Comma = List.find(',', Pos);
        const std::string Name = List.substr(
            Pos, Comma == std::string::npos ? Comma : Comma - Pos);
        bool Ok = false;
        const PaperKey Key = paperKeyByName(Name, Ok);
        if (Ok)
          Options.Keys.push_back(Key);
        else
          std::fprintf(stderr, "warning: unknown key type '%s'\n",
                       Name.c_str());
        Pos = Comma == std::string::npos ? Comma : Comma + 1;
      }
    } else if (Arg.rfind("--filter=", 0) == 0) {
      Options.Filter = Arg.substr(9);
    } else if (Arg.rfind("--path=", 0) == 0) {
      const std::string Name = Arg.substr(7);
      if (Name == "auto")
        Options.Path = BatchPath::Auto;
      else if (Name == "scalar")
        Options.Path = BatchPath::Scalar;
      else if (Name == "interleaved")
        Options.Path = BatchPath::Interleaved;
      else if (Name == "avx2")
        Options.Path = BatchPath::Avx2;
      else if (Name == "jit")
        Options.Path = BatchPath::Jit;
      else {
        std::fprintf(stderr, "error: unknown --path '%s'\n", Name.c_str());
        return false;
      }
    } else if (Arg.rfind("--threads=", 0) == 0) {
      Options.Threads = std::max<size_t>(1, std::stoul(Arg.substr(10)));
    } else if (Arg.rfind("--json=", 0) == 0) {
      Options.JsonPath = Arg.substr(7);
    } else if (Arg.rfind("--quality-json=", 0) == 0) {
      Options.QualityJsonPath = Arg.substr(15);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Options.TracePath = Arg.substr(8);
    } else if (Arg == "--list") {
      Options.List = true;
    } else if (Arg.rfind("--compare=", 0) == 0) {
      const std::string Pair = Arg.substr(10);
      const size_t Comma = Pair.find(',');
      if (Comma == std::string::npos) {
        std::fprintf(stderr,
                     "error: --compare needs BASE.json,NEW.json\n");
        return false;
      }
      Options.CompareBase = Pair.substr(0, Comma);
      Options.CompareNew = Pair.substr(Comma + 1);
    } else if (Arg.rfind("--noise-k=", 0) == 0) {
      Options.Thresholds.NoiseK = std::stod(Arg.substr(10));
    } else if (Arg.rfind("--abs-floor=", 0) == 0) {
      Options.Thresholds.AbsFloor = std::stod(Arg.substr(12));
    } else if (Arg.rfind("--rel-floor=", 0) == 0) {
      Options.Thresholds.RelFloor = std::stod(Arg.substr(12));
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return false;
    }
  }
  return true;
}

// --- Workloads -------------------------------------------------------------

/// One suite entry: a closure that runs a single timed trial and
/// returns the value in Unit; UnitsPerTrial feeds cycles/key.
struct SuiteWorkload {
  std::string Name;
  std::string Unit;
  double UnitsPerTrial = 0;
  std::function<double()> Run;
};

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared per-format state the hashing workloads capture, built once.
struct FormatFixture {
  PaperKey Key;
  std::shared_ptr<HashFunctionSet> Set;
  std::shared_ptr<std::vector<std::string>> Text;
  std::shared_ptr<std::vector<std::string_view>> Views;
};

FormatFixture makeFixture(PaperKey Key, size_t PoolSize,
                          BatchPath Path = BatchPath::Auto) {
  FormatFixture Fixture;
  Fixture.Key = Key;
  Fixture.Set = std::make_shared<HashFunctionSet>(
      HashFunctionSet::create(Key, IsaLevel::Native, Path));
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                   0x5ebe + static_cast<uint64_t>(Key));
  Fixture.Text = std::make_shared<std::vector<std::string>>(
      Gen.distinct(PoolSize));
  Fixture.Views = std::make_shared<std::vector<std::string_view>>(
      Fixture.Text->begin(), Fixture.Text->end());
  return Fixture;
}

void addHashWorkloads(std::vector<SuiteWorkload> &Suite,
                      const FormatFixture &Fixture, size_t Passes) {
  const std::vector<HashKind> Kinds = {HashKind::Naive, HashKind::OffXor,
                                       HashKind::Aes, HashKind::Pext,
                                       HashKind::Stl};
  const std::string Format = paperKeyName(Fixture.Key);
  const double Units =
      static_cast<double>(Passes * Fixture.Views->size());
  for (HashKind Kind : Kinds) {
    SuiteWorkload Single;
    Single.Name = "hash_single/" + Format + "/" + hashKindName(Kind);
    Single.Unit = "ns_per_key";
    Single.UnitsPerTrial = Units;
    Single.Run = [Fixture, Kind, Passes, Units] {
      const double Start = nowMs();
      uint64_t Sink = 0;
      Fixture.Set->visit(Kind, [&](const auto &Hasher) {
        for (size_t P = 0; P != Passes; ++P)
          for (const std::string_view V : *Fixture.Views)
            Sink += static_cast<uint64_t>(Hasher(V));
      });
      asm volatile("" : : "r"(Sink) : "memory");
      return (nowMs() - Start) * 1e6 / Units;
    };
    Suite.push_back(std::move(Single));

    SuiteWorkload Batch;
    Batch.Name = "hash_batch/" + Format + "/" + hashKindName(Kind);
    Batch.Unit = "ns_per_key";
    Batch.UnitsPerTrial = Units;
    Batch.Run = [Fixture, Kind, Passes, Units] {
      std::vector<uint64_t> Out(Fixture.Views->size());
      const double Start = nowMs();
      for (size_t P = 0; P != Passes; ++P) {
        Fixture.Set->hashBatch(Kind, Fixture.Views->data(), Out.data(),
                               Fixture.Views->size());
        asm volatile("" : : "r"(Out.data()) : "memory");
      }
      return (nowMs() - Start) * 1e6 / Units;
    };
    Suite.push_back(std::move(Batch));
  }
}

void addJitWorkloads(std::vector<SuiteWorkload> &Suite,
                     const FormatFixture &Fixture, size_t Passes) {
  // Compiled-vs-interpreted columns for the families the x86-64
  // emitter handles. Each pair pins one hasher to the Jit rung and one
  // to interpreted Scalar over the same plan; on hosts without BMI2 or
  // for plan shapes the emitter rejects, the Jit pin resolves downward,
  // so the workload set stays stable for the comparator and the paired
  // columns simply converge.
  const std::string Format = paperKeyName(Fixture.Key);
  const double Units = static_cast<double>(Passes * Fixture.Views->size());
  for (HashKind Kind : {HashKind::Pext, HashKind::OffXor}) {
    const SynthesizedHash &Attached =
        Fixture.Set->synthesized(syntheticFamily(Kind));
    const std::string Family = Kind == HashKind::Pext ? "pext" : "offxor";
    struct Lane {
      const char *Suffix;
      std::shared_ptr<SynthesizedHash> Hash;
    };
    const Lane Lanes[2] = {
        {"", std::make_shared<SynthesizedHash>(Attached.plan(),
                                               Fixture.Set->isa(),
                                               BatchPath::Jit)},
        {"_interp", std::make_shared<SynthesizedHash>(Attached.plan(),
                                                      Fixture.Set->isa(),
                                                      BatchPath::Scalar)}};
    for (const Lane &L : Lanes) {
      SuiteWorkload Batch;
      Batch.Name = "jit/" + Format + "/" + Family + "_batch" + L.Suffix;
      Batch.Unit = "ns_per_key";
      Batch.UnitsPerTrial = Units;
      Batch.Run = [Fixture, Hash = L.Hash, Passes, Units] {
        std::vector<uint64_t> Out(Fixture.Views->size());
        const double Start = nowMs();
        for (size_t P = 0; P != Passes; ++P) {
          Hash->hashBatch(Fixture.Views->data(), Out.data(),
                          Fixture.Views->size());
          asm volatile("" : : "r"(Out.data()) : "memory");
        }
        return (nowMs() - Start) * 1e6 / Units;
      };
      Suite.push_back(std::move(Batch));

      // Single-key lanes only for Pext: the acceptance metric is the
      // batch kernel, and one single-key pair per format is enough to
      // see the per-call JIT entry overhead.
      if (Kind != HashKind::Pext)
        continue;
      SuiteWorkload Single;
      Single.Name = "jit/" + Format + "/" + Family + "_single" + L.Suffix;
      Single.Unit = "ns_per_key";
      Single.UnitsPerTrial = Units;
      Single.Run = [Fixture, Hash = L.Hash, Passes, Units] {
        const double Start = nowMs();
        uint64_t Sink = 0;
        for (size_t P = 0; P != Passes; ++P)
          for (const std::string_view V : *Fixture.Views)
            Sink += static_cast<uint64_t>((*Hash)(V));
        asm volatile("" : : "r"(Sink) : "memory");
        return (nowMs() - Start) * 1e6 / Units;
      };
      Suite.push_back(std::move(Single));
    }
  }
}

void addAdaptiveWorkloads(std::vector<SuiteWorkload> &Suite,
                          const FormatFixture &Fixture, size_t Passes) {
  const std::string Format = paperKeyName(Fixture.Key);
  const double Units = static_cast<double>(Passes * Fixture.Views->size());

  // Steady state: guarded dispatch over an in-format pool. The guard
  // overhead acceptance number is this against hash_batch/<fmt>/OffXor
  // (same pool, same passes, same batch kernel underneath).
  AdaptiveOptions GuardOptions;
  GuardOptions.Background = false;
  auto Adaptive = std::make_shared<AdaptiveHash>(
      paperKeyFormat(Fixture.Key).abstract(), GuardOptions);
  SuiteWorkload Guard;
  Guard.Name = "adaptive_guard/" + Format;
  Guard.Unit = "ns_per_key";
  Guard.UnitsPerTrial = Units;
  Guard.Run = [Fixture, Adaptive, Passes, Units] {
    std::vector<uint64_t> Out(Fixture.Views->size());
    const double Start = nowMs();
    for (size_t P = 0; P != Passes; ++P) {
      Adaptive->hashBatch(Fixture.Views->data(), Out.data(),
                          Fixture.Views->size());
      asm volatile("" : : "r"(Out.data()) : "memory");
    }
    return (nowMs() - Start) * 1e6 / Units;
  };
  Suite.push_back(std::move(Guard));

  // Drift recovery: wall ms from the first out-of-format batch until a
  // resynthesized generation is live — detector windows, sampling, the
  // joined synthesis, and the hot swap all inside the measured region.
  // Every trial builds a fresh AdaptiveHash so trials are independent.
  const KeyPattern Pattern = paperKeyFormat(Fixture.Key).abstract();
  const DriftProbe Probe = findDriftProbe(Pattern);
  if (!Probe.Valid)
    return; // An all-top pattern cannot be drifted out of.
  auto Drifted =
      std::make_shared<std::vector<std::string>>(*Fixture.Text);
  for (std::string &Key : *Drifted)
    Key[Probe.Pos] = Probe.Byte;
  auto DriftViews = std::make_shared<std::vector<std::string_view>>(
      Drifted->begin(), Drifted->end());
  SuiteWorkload Recovery;
  Recovery.Name = "adaptive_recovery/" + Format;
  Recovery.Unit = "ms";
  Recovery.UnitsPerTrial = 1;
  Recovery.Run = [Pattern, Drifted, DriftViews] {
    AdaptiveOptions Options;
    Options.Background = false;
    Options.Cooldown = std::chrono::milliseconds(0);
    AdaptiveHash Fresh(Pattern, Options);
    std::vector<uint64_t> Out(DriftViews->size());
    const double Start = nowMs();
    bool Swapped = false;
    for (size_t Round = 0; Round != 64 && !Swapped; ++Round) {
      Fresh.hashBatch(DriftViews->data(), Out.data(), DriftViews->size());
      asm volatile("" : : "r"(Out.data()) : "memory");
      if (Fresh.resynthesisPending())
        Swapped = Fresh.pumpResynthesis();
    }
    return nowMs() - Start;
  };
  Suite.push_back(std::move(Recovery));
}

void addExperimentWorkloads(std::vector<SuiteWorkload> &Suite,
                            const FormatFixture &Fixture,
                            size_t Affectations) {
  const std::string Format = paperKeyName(Fixture.Key);
  // fig13 shape: Batched-mode full-schedule replay, U-Map, normal keys.
  ExperimentConfig Config;
  Config.Container = ContainerKind::Map;
  Config.Distribution = KeyDistribution::Normal;
  Config.Spread = 2000;
  Config.Mode = ExecMode::Batched;
  Config.Affectations = Affectations;
  const auto Work =
      std::make_shared<Workload>(makeWorkload(Fixture.Key, Config));
  // One schedule replay is well under a millisecond in quick mode, so
  // a trial averages Reps full replays to push the measured region
  // past timer/scheduler granularity.
  const size_t Reps = 8;
  const double Units =
      static_cast<double>(Reps * Work->Schedule.size());
  for (HashKind Kind : {HashKind::Pext, HashKind::Stl}) {
    SuiteWorkload Entry;
    Entry.Name = std::string("fig13_btime/") + Format + "/" +
                 hashKindName(Kind);
    Entry.Unit = "ms";
    Entry.UnitsPerTrial = Units;
    Entry.Run = [Fixture, Work, Config, Kind, Reps] {
      double Total = 0;
      for (size_t R = 0; R != Reps; ++R)
        Total += runExperiment(*Work, Config, Kind, *Fixture.Set).BTimeMs;
      return Total / static_cast<double>(Reps);
    };
    Suite.push_back(std::move(Entry));
  }

  // fig20 shape: same schedule through every container, one fast hash.
  for (ContainerKind Container : AllContainerKinds) {
    ExperimentConfig PerContainer = Config;
    PerContainer.Container = Container;
    const auto ContainerWork = std::make_shared<Workload>(
        makeWorkload(Fixture.Key, PerContainer));
    SuiteWorkload Entry;
    Entry.Name = std::string("fig20_container/") + Format + "/" +
                 containerKindName(Container);
    Entry.Unit = "ms";
    Entry.UnitsPerTrial =
        static_cast<double>(Reps * ContainerWork->Schedule.size());
    Entry.Run = [Fixture, ContainerWork, PerContainer, Reps] {
      double Total = 0;
      for (size_t R = 0; R != Reps; ++R)
        Total += runExperiment(*ContainerWork, PerContainer,
                               HashKind::OffXor, *Fixture.Set)
                     .BTimeMs;
      return Total / static_cast<double>(Reps);
    };
    Suite.push_back(std::move(Entry));
  }

  // The specialized-storage probe replay (bijective plans only).
  if (Fixture.Set->synthesized(HashFamily::Pext).plan().Bijective) {
    SuiteWorkload Entry;
    Entry.Name = std::string("flat_probe/") + Format;
    Entry.Unit = "ms";
    Entry.UnitsPerTrial = Units;
    Entry.Run = [Fixture, Work, Reps] {
      double Total = 0;
      for (size_t R = 0; R != Reps; ++R) {
        FlatIndexProbeResult Probe;
        if (!runFlatIndexProbe(*Work, *Fixture.Set, Probe))
          return 0.0;
        Total += Probe.BTimeMs;
      }
      return Total / static_cast<double>(Reps);
    };
    Suite.push_back(std::move(Entry));
  }

  // LowMixTable chained inserts + lookups over the pool.
  {
    SuiteWorkload Entry;
    const size_t LowMixReps = 64;
    Entry.Name = std::string("lowmix/") + Format;
    Entry.Unit = "ns_per_op";
    Entry.UnitsPerTrial =
        static_cast<double>(LowMixReps * 2 * Fixture.Text->size());
    Entry.Run = [Fixture, LowMixReps] {
      const double Start = nowMs();
      uint64_t Sink = 0;
      for (size_t R = 0; R != LowMixReps; ++R) {
        LowMixTable<std::string, MurmurStlHash> Table{
            MurmurStlHash{}, 0, Fixture.Text->size()};
        for (const std::string &Key : *Fixture.Text)
          Table.insert(Key);
        for (const std::string &Key : *Fixture.Text)
          Sink += Table.contains(Key) ? 1 : 0;
      }
      asm volatile("" : : "r"(Sink) : "memory");
      return (nowMs() - Start) * 1e6 /
             static_cast<double>(LowMixReps * 2 * Fixture.Text->size());
    };
    Suite.push_back(std::move(Entry));
  }
}

void addScalingWorkload(std::vector<SuiteWorkload> &Suite, bool Full) {
  // fig19 shape: one long-key Pext point (4 KiB of digits).
  const size_t KeyBytes = 4096;
  Expected<FormatSpec> Spec =
      parseRegex("[0-9]{" + std::to_string(KeyBytes) + "}");
  if (!Spec)
    return;
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  if (!Plan)
    return;
  const auto Pext = std::make_shared<SynthesizedHash>(Plan.take());
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 0xf19);
  auto Keys = std::make_shared<std::vector<std::string>>();
  for (int I = 0; I != 64; ++I)
    Keys->push_back(Gen.next());
  const size_t Rounds = Full ? 400 : 100;
  SuiteWorkload Entry;
  Entry.Name = "fig19_scaling/4096B/Pext";
  Entry.Unit = "ns_per_key";
  Entry.UnitsPerTrial = static_cast<double>(Rounds * Keys->size());
  Entry.Run = [Pext, Keys, Rounds] {
    const double Start = nowMs();
    uint64_t Sink = 0;
    for (size_t R = 0; R != Rounds; ++R)
      for (const std::string &Key : *Keys)
        Sink += (*Pext)(Key);
    asm volatile("" : : "r"(Sink) : "memory");
    return (nowMs() - Start) * 1e6 /
           static_cast<double>(Rounds * Keys->size());
  };
  Suite.push_back(std::move(Entry));
}

// --- Static-set tier: MPHF construction and direct-index serving -----------

/// Per-format MPHF workloads over the shared 512-key fixture pool:
/// construction time and DirectIndexMap lookups (scalar and batch).
void addMphfWorkloads(std::vector<SuiteWorkload> &Suite,
                      const FormatFixture &Fixture, size_t Passes) {
  const std::string Format = paperKeyName(Fixture.Key);
  const double Units = static_cast<double>(Passes * Fixture.Views->size());

  SuiteWorkload Build;
  Build.Name = "mphf/" + Format + "/build";
  Build.Unit = "ms";
  Build.UnitsPerTrial = static_cast<double>(Fixture.Views->size());
  Build.Run = [Fixture] {
    MphfBuildOptions Options;
    Options.Format = &paperKeyFormat(Fixture.Key);
    const double Start = nowMs();
    Expected<Mphf> F = buildMphf(*Fixture.Views, Options);
    asm volatile("" : : "r"(&F) : "memory");
    return nowMs() - Start;
  };
  Suite.push_back(std::move(Build));

  MphfBuildOptions Options;
  Options.Format = &paperKeyFormat(Fixture.Key);
  Expected<Mphf> F = buildMphf(*Fixture.Views, Options);
  if (!F)
    return;
  std::vector<uint32_t> Vals(Fixture.Views->size());
  for (size_t I = 0; I != Vals.size(); ++I)
    Vals[I] = static_cast<uint32_t>(I);
  auto Map = std::make_shared<DirectIndexMap<uint32_t>>(
      F.take(), Fixture.Views->data(), Vals.data(), Vals.size());
  if (!Map->valid())
    return;

  SuiteWorkload Lookup;
  Lookup.Name = "mphf/" + Format + "/lookup";
  Lookup.Unit = "ns_per_key";
  Lookup.UnitsPerTrial = Units;
  Lookup.Run = [Fixture, Map, Passes, Units] {
    const double Start = nowMs();
    uint64_t Sink = 0;
    for (size_t P = 0; P != Passes; ++P)
      for (const std::string_view V : *Fixture.Views)
        Sink += *Map->find(V);
    asm volatile("" : : "r"(Sink) : "memory");
    return (nowMs() - Start) * 1e6 / Units;
  };
  Suite.push_back(std::move(Lookup));

  SuiteWorkload Batch;
  Batch.Name = "mphf/" + Format + "/lookup_batch";
  Batch.Unit = "ns_per_key";
  Batch.UnitsPerTrial = Units;
  Batch.Run = [Fixture, Map, Passes, Units] {
    std::vector<const uint32_t *> Out(Fixture.Views->size());
    const double Start = nowMs();
    uint64_t Sink = 0;
    for (size_t P = 0; P != Passes; ++P) {
      Sink += Map->findBatch(Fixture.Views->data(), Out.data(),
                             Fixture.Views->size());
      asm volatile("" : : "r"(Out.data()) : "memory");
    }
    asm volatile("" : : "r"(Sink) : "memory");
    return (nowMs() - Start) * 1e6 / Units;
  };
  Suite.push_back(std::move(Batch));
}

/// The fig20-class static-serving scaling group: FlatIndexMap vs the
/// miniature gperf vs the MPHF-backed direct index over one fixed
/// bijective format (SSN, so names are stable and the Flat comparison
/// is valid), at n = 1e2..1e5 (1e6 in --full). Each size reports build
/// time per container and ns/lookup through each container's fastest
/// public lookup path (Flat: scalar find; direct index: findBatch;
/// gperf: batch hash + table load). gperf stops at n = 1000 — beyond
/// its keyword-set regime the association-table search degrades, which
/// is the paper's point about it.
void addMphfScaleWorkloads(std::vector<SuiteWorkload> &Suite, bool Full) {
  const PaperKey Key = PaperKey::SSN;
  const FormatSpec &Format = paperKeyFormat(Key);
  Expected<HashPlan> Plan = synthesize(Format.abstract(), HashFamily::Pext);
  if (!Plan || !Plan->Bijective)
    return;
  const auto FlatHash = std::make_shared<SynthesizedHash>(Plan.take());

  std::vector<size_t> Sizes = {100, 1000, 10000, 100000};
  if (Full)
    Sizes.push_back(1000000);
  for (const size_t N : Sizes) {
    const std::string Group = "mphf_scale/n" + std::to_string(N) + "/";
    KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x3f1e + N);
    // The views alias into the generated strings, so Views co-owns the
    // text (aliasing shared_ptr): any lambda capturing Views keeps the
    // backing corpus alive.
    struct Corpus {
      std::vector<std::string> Strings;
      std::vector<std::string_view> Views;
    };
    auto Backing = std::make_shared<Corpus>();
    Backing->Strings = Gen.distinct(N);
    Backing->Views.assign(Backing->Strings.begin(), Backing->Strings.end());
    std::shared_ptr<std::vector<std::string>> Text(Backing,
                                                   &Backing->Strings);
    std::shared_ptr<std::vector<std::string_view>> Views(Backing,
                                                         &Backing->Views);
    auto Vals = std::make_shared<std::vector<uint32_t>>(N);
    for (size_t I = 0; I != N; ++I)
      (*Vals)[I] = static_cast<uint32_t>(I);
    const size_t Passes = std::max<size_t>(1, 1000000 / N);
    const double Units = static_cast<double>(Passes * N);

    // Build-time lanes. Each trial builds from scratch.
    SuiteWorkload BuildDirect;
    BuildDirect.Name = Group + "build_direct";
    BuildDirect.Unit = "ms";
    BuildDirect.UnitsPerTrial = static_cast<double>(N);
    BuildDirect.Run = [Views, Vals, &Format = paperKeyFormat(Key)] {
      MphfBuildOptions Options;
      Options.Format = &Format;
      const double Start = nowMs();
      Expected<Mphf> F = buildMphf(*Views, Options);
      if (!F)
        return 0.0;
      DirectIndexMap<uint32_t> Map(F.take(), Views->data(), Vals->data(),
                                   Views->size());
      asm volatile("" : : "r"(Map.valid()) : "memory");
      return nowMs() - Start;
    };
    Suite.push_back(std::move(BuildDirect));

    SuiteWorkload BuildFlat;
    BuildFlat.Name = Group + "build_flat";
    BuildFlat.Unit = "ms";
    BuildFlat.UnitsPerTrial = static_cast<double>(N);
    BuildFlat.Run = [Views, Vals, FlatHash] {
      const double Start = nowMs();
      FlatIndexMap<uint32_t> Map(*FlatHash, Views->size());
      Map.insertBatch(Views->data(), Vals->data(), Views->size());
      asm volatile("" : : "r"(Map.size()) : "memory");
      return nowMs() - Start;
    };
    Suite.push_back(std::move(BuildFlat));

    // Lookup lanes over prebuilt containers.
    {
      MphfBuildOptions Options;
      Options.Format = &Format;
      Expected<Mphf> F = buildMphf(*Views, Options);
      if (F) {
        auto Map = std::make_shared<DirectIndexMap<uint32_t>>(
            F.take(), Views->data(), Vals->data(), Views->size());
        if (Map->valid()) {
          SuiteWorkload Direct;
          Direct.Name = Group + "direct";
          Direct.Unit = "ns_per_key";
          Direct.UnitsPerTrial = Units;
          Direct.Run = [Views, Map, Passes, Units] {
            std::vector<const uint32_t *> Out(Views->size());
            const double Start = nowMs();
            uint64_t Sink = 0;
            for (size_t P = 0; P != Passes; ++P) {
              Sink += Map->findBatch(Views->data(), Out.data(),
                                     Views->size());
              asm volatile("" : : "r"(Out.data()) : "memory");
            }
            asm volatile("" : : "r"(Sink) : "memory");
            return (nowMs() - Start) * 1e6 / Units;
          };
          Suite.push_back(std::move(Direct));
        }
      }
    }
    {
      auto Map = std::make_shared<FlatIndexMap<uint32_t>>(*FlatHash,
                                                          Views->size());
      Map->insertBatch(Views->data(), Vals->data(), Views->size());
      SuiteWorkload Flat;
      Flat.Name = Group + "flat";
      Flat.Unit = "ns_per_key";
      Flat.UnitsPerTrial = Units;
      Flat.Run = [Views, Map, Passes, Units] {
        const double Start = nowMs();
        uint64_t Sink = 0;
        for (size_t P = 0; P != Passes; ++P)
          for (const std::string_view V : *Views) {
            const uint32_t *Hit = Map->find(V);
            Sink += Hit ? *Hit : 0;
          }
        asm volatile("" : : "r"(Sink) : "memory");
        return (nowMs() - Start) * 1e6 / Units;
      };
      Suite.push_back(std::move(Flat));
    }
    if (N <= 1000) {
      SuiteWorkload BuildGperf;
      BuildGperf.Name = Group + "build_gperf";
      BuildGperf.Unit = "ms";
      BuildGperf.UnitsPerTrial = static_cast<double>(N);
      BuildGperf.Run = [Text] {
        const double Start = nowMs();
        const PerfectHashFunction Hash = buildPerfectHash(*Text);
        asm volatile("" : : "r"(Hash.trainingCollisions()) : "memory");
        return nowMs() - Start;
      };
      Suite.push_back(std::move(BuildGperf));

      const PerfectHashFunction Hash = buildPerfectHash(*Text);
      // gperf serves from a dense table indexed by its (narrow-range)
      // hash; clamping keeps stray values in range without a branch.
      size_t MaxHash = 0;
      for (const std::string_view V : *Views)
        MaxHash = std::max(MaxHash, Hash(V));
      auto Table = std::make_shared<std::vector<uint32_t>>(MaxHash + 1, 0);
      for (size_t I = 0; I != Views->size(); ++I)
        (*Table)[std::min(Hash((*Views)[I]), MaxHash)] =
            static_cast<uint32_t>(I);
      SuiteWorkload Gperf;
      Gperf.Name = Group + "gperf";
      Gperf.Unit = "ns_per_key";
      Gperf.UnitsPerTrial = Units;
      Gperf.Run = [Views, Hash, Table, MaxHash, Passes, Units] {
        std::vector<uint64_t> Hashes(Views->size());
        const double Start = nowMs();
        uint64_t Sink = 0;
        for (size_t P = 0; P != Passes; ++P) {
          Hash.hashBatch(Views->data(), Hashes.data(), Views->size());
          for (const uint64_t H : Hashes)
            Sink += (*Table)[std::min<size_t>(H, MaxHash)];
        }
        asm volatile("" : : "r"(Sink) : "memory");
        return (nowMs() - Start) * 1e6 / Units;
      };
      Suite.push_back(std::move(Gperf));
    }
  }
}

// --- Multi-threaded scaling: the sharded serving layer ---------------------

/// Spawns \p Threads workers running Body(tid), returns wall ms from
/// first spawn to last join. Trials are macroscopic (hundreds of
/// thousands of ops) so the spawn cost is noise.
double runThreaded(size_t Threads, const std::function<void(size_t)> &Body) {
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  const double Start = nowMs();
  for (size_t T = 0; T != Threads; ++T)
    Workers.emplace_back(Body, T);
  for (std::thread &W : Workers)
    W.join();
  return nowMs() - Start;
}

/// Concurrent shard workloads: read-heavy (the batch
/// hash -> partition -> probe pipeline), write-heavy (per-shard lock
/// churn) and a two-lane drift mix through the full ServingTable, each
/// across a thread ladder. The unit is core-ns per op — wall time
/// times thread count over total ops — so it is flat under perfect
/// scaling, degrades when contention bites, and stays lower-is-better
/// for the --compare gate (which thereby gates throughput-per-core).
/// The ladder is fixed at {1,2,4,8} regardless of the host's core
/// count so workload names are stable across machines and baselines;
/// --threads=N collapses it to {N}.
void addShardScaleWorkloads(std::vector<SuiteWorkload> &Suite,
                            const SuiteOptions &Options) {
  const PaperKey Key = PaperKey::SSN; // Fixed format: stable names.
  const FormatSpec Format = paperKeyFormat(Key);
  const KeyPattern Pattern = Format.abstract();
  Expected<HashPlan> Plan = synthesize(Pattern, HashFamily::Pext);
  if (!Plan)
    return;
  HashPlan Taken = Plan.take();
  if (!Taken.Bijective)
    return;
  const SynthesizedHash Hash(std::move(Taken));

  const size_t PoolSize = 4096;
  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x54a2d);
  auto Text =
      std::make_shared<std::vector<std::string>>(Gen.distinct(PoolSize));
  auto Views = std::make_shared<std::vector<std::string_view>>(
      Text->begin(), Text->end());

  std::vector<size_t> Ladder = {1, 2, 4, 8};
  if (Options.Threads != 0)
    Ladder = {Options.Threads};
  const size_t TotalOps = Options.Full ? (1u << 20) : (1u << 18);

  // Shared pre-populated map: reads don't mutate it and the write mix
  // below balances put/erase, so trials stay comparable.
  auto Map = std::make_shared<ShardedIndexMap<uint64_t>>(Hash, Pattern);
  for (size_t I = 0; I != Views->size(); ++I)
    Map->put((*Views)[I], I);

  for (const size_t Threads : Ladder) {
    SuiteWorkload Read;
    Read.Name = "shard_scale/read_heavy/t" + std::to_string(Threads);
    Read.Unit = "core_ns_per_op";
    Read.UnitsPerTrial = static_cast<double>(TotalOps);
    Read.Run = [Map, Views, Threads, TotalOps] {
      const size_t OpsPerThread = TotalOps / Threads;
      const double Ms = runThreaded(Threads, [&](size_t Tid) {
        uint64_t Out[64];
        uint8_t Found[64];
        uint64_t Sink = 0;
        size_t Pos = (Tid * 977) % Views->size();
        for (size_t Done = 0; Done < OpsPerThread; Done += 64) {
          if (Pos + 64 > Views->size())
            Pos = 0;
          Sink += Map->getBatch(Views->data() + Pos, Out, Found, 64);
          Pos += 64;
        }
        asm volatile("" : : "r"(Sink) : "memory");
      });
      return Ms * 1e6 * Threads / static_cast<double>(TotalOps);
    };
    Suite.push_back(std::move(Read));

    SuiteWorkload Write;
    Write.Name = "shard_scale/write_heavy/t" + std::to_string(Threads);
    Write.Unit = "core_ns_per_op";
    Write.UnitsPerTrial = static_cast<double>(TotalOps);
    Write.Run = [Map, Views, Threads, TotalOps] {
      const size_t OpsPerThread = TotalOps / Threads;
      const double Ms = runThreaded(Threads, [&](size_t Tid) {
        // Balanced put/erase over a rotating window: every key erased
        // is re-inserted two steps later, so the population is steady.
        size_t Pos = (Tid * 1409) % Views->size();
        for (size_t Done = 0; Done != OpsPerThread; ++Done) {
          const std::string_view V = (*Views)[Pos];
          if (Done & 1)
            Map->put(V, Pos);
          else
            Map->erase(V);
          Pos = Pos + 1 == Views->size() ? 0 : Pos + 1;
        }
      });
      return Ms * 1e6 * Threads / static_cast<double>(TotalOps);
    };
    Suite.push_back(std::move(Write));
  }

  // Drift mix: the full two-lane ServingTable with 25% of lookups
  // aimed at out-of-format keys (served by the spill lane). Measures
  // the routed dispatch + lane fallthrough under concurrency, not
  // recovery time (the swap itself is adaptive_recovery's job).
  const DriftProbe Probe = findDriftProbe(Pattern);
  if (!Probe.Valid)
    return;
  auto DriftText = std::make_shared<std::vector<std::string>>(*Text);
  for (std::string &K : *DriftText)
    K[Probe.Pos] = Probe.Byte;
  auto DriftViews = std::make_shared<std::vector<std::string_view>>(
      DriftText->begin(), DriftText->end());
  AdaptiveOptions ServeOptions;
  ServeOptions.Family = HashFamily::Pext;
  ServeOptions.Background = false;
  auto Serve = std::make_shared<ServingTable<uint64_t>>(Pattern,
                                                        ServeOptions);
  for (size_t I = 0; I != Views->size(); ++I) {
    Serve->put((*Views)[I], I);
    Serve->put((*DriftViews)[I], PoolSize + I);
  }
  for (const size_t Threads : Ladder) {
    SuiteWorkload Drift;
    Drift.Name = "shard_scale/drift_mix/t" + std::to_string(Threads);
    Drift.Unit = "core_ns_per_op";
    Drift.UnitsPerTrial = static_cast<double>(TotalOps);
    Drift.Run = [Serve, Views, DriftViews, Threads, TotalOps] {
      const size_t OpsPerThread = TotalOps / Threads;
      const double Ms = runThreaded(Threads, [&](size_t Tid) {
        uint64_t Sink = 0;
        size_t Pos = (Tid * 2741) % Views->size();
        for (size_t Done = 0; Done != OpsPerThread; ++Done) {
          uint64_t V = 0;
          const bool Spill = (Done & 3) == 3; // 25% out-of-format.
          Sink += (Spill ? Serve->get((*DriftViews)[Pos], V)
                         : Serve->get((*Views)[Pos], V))
                      ? 1
                      : 0;
          Pos = Pos + 1 == Views->size() ? 0 : Pos + 1;
        }
        asm volatile("" : : "r"(Sink) : "memory");
      });
      return Ms * 1e6 * Threads / static_cast<double>(TotalOps);
    };
    Suite.push_back(std::move(Drift));
  }
}

// --- Statistical quality scorecard -----------------------------------------

/// Reports collected by the quality/* workloads, keyed by workload
/// name so the scorecard JSON comes out in suite order. The workloads
/// both time the harness (the suite value, in ms) and deposit the
/// measured report here for BENCH_quality.json.
using QualityScorecard = std::map<std::string, quality::QualityReport>;

/// One workload per paper format x synthesized family over the full
/// 8-format matrix (independent of --keys: the scorecard is a
/// correctness surface, not a timing one, and CI asserts floors on
/// every cell). The measurement is deterministic, so re-running it
/// each trial only re-times it; the deposited report is identical.
void addQualityWorkloads(std::vector<SuiteWorkload> &Suite,
                         std::shared_ptr<QualityScorecard> Scorecard) {
  for (PaperKey Key : AllPaperKeys) {
    for (HashFamily Family :
         {HashFamily::Naive, HashFamily::OffXor, HashFamily::Aes,
          HashFamily::Pext}) {
      SuiteWorkload Entry;
      Entry.Name = std::string("quality/") + paperKeyName(Key) + "/" +
                   familyName(Family);
      Entry.Unit = "ms";
      Entry.UnitsPerTrial = 1;
      Entry.Run = [Key, Family, Scorecard,
                   Name = Entry.Name]() -> double {
        const FormatSpec &Format = paperKeyFormat(Key);
        Expected<HashPlan> Plan =
            synthesize(Format.abstract(), Family);
        if (!Plan)
          return 0.0;
        const SynthesizedHash Hash(Plan.take());
        const double Start = nowMs();
        quality::QualityReport Report =
            quality::measureQuality(Format, Hash);
        const double Ms = nowMs() - Start;
        Report.Format = paperKeyName(Key);
        (*Scorecard)[Name] = std::move(Report);
        return Ms;
      };
      Suite.push_back(std::move(Entry));
    }
  }
}

/// Writes the BENCH_quality.json scorecard through the shared bench
/// envelope: one row per quality/* workload that ran.
bool writeQualityScorecard(const std::string &Path,
                           const QualityScorecard &Scorecard) {
  std::FILE *F = openJsonReport(Path, "sepebench-quality");
  if (!F)
    return false;
  std::fprintf(F, "  \"scorecard\": [\n");
  size_t I = 0;
  for (const auto &[Name, Report] : Scorecard)
    std::fprintf(F, "    %s%s\n", Report.toJson().c_str(),
                 ++I == Scorecard.size() ? "" : ",");
  std::fprintf(F, "  ],\n");
  closeJsonReport(F);
  return true;
}

std::vector<SuiteWorkload>
buildSuite(const SuiteOptions &Options,
           std::shared_ptr<QualityScorecard> Scorecard) {
  std::vector<SuiteWorkload> Suite;
  // Each timed trial must be macroscopic (hundreds of microseconds at
  // least) or timer granularity and scheduling transients swamp the
  // per-key estimate; 2000 passes over 512 keys is ~1M hashes/trial.
  const size_t PoolSize = 512;
  const size_t Passes = Options.Full ? 8000 : 2000;
  const size_t Affectations = Options.Full ? 10000 : 2000;
  for (PaperKey Key : Options.Keys) {
    const FormatFixture Fixture = makeFixture(Key, PoolSize, Options.Path);
    addHashWorkloads(Suite, Fixture, Passes);
    addJitWorkloads(Suite, Fixture, Passes);
    addAdaptiveWorkloads(Suite, Fixture, Passes);
    addExperimentWorkloads(Suite, Fixture, Affectations);
    addMphfWorkloads(Suite, Fixture, Passes);
  }
  addScalingWorkload(Suite, Options.Full);
  addShardScaleWorkloads(Suite, Options);
  addMphfScaleWorkloads(Suite, Options.Full);
  addQualityWorkloads(Suite, std::move(Scorecard));
  if (!Options.Filter.empty()) {
    try {
      const std::regex Filter(Options.Filter);
      std::erase_if(Suite, [&](const SuiteWorkload &W) {
        return !std::regex_search(W.Name, Filter);
      });
    } catch (const std::regex_error &E) {
      std::fprintf(stderr, "error: bad --filter regex '%s': %s\n",
                   Options.Filter.c_str(), E.what());
      std::exit(2);
    }
  }
  return Suite;
}

// --- Trial loop + robust stats --------------------------------------------

struct WorkloadResult {
  const SuiteWorkload *Work = nullptr;
  std::vector<double> Trials;
  std::vector<double> Kept;
  double Median = 0, Mad = 0, Cv = 0, Min = 0, Max = 0;
  perf::CounterReading Pmu;
  /// Telemetry registry snapshot of the instrumented pass alone (the
  /// registry is reset before it, so sections don't accumulate across
  /// workloads).
  std::string Telemetry = telemetry::toJson();
};

/// Robust reduction: median/MAD over all trials, discard trials beyond
/// 5 MADs of the median (|x - med| > 5 * MAD, MAD > 0), then recompute
/// the reported stats over the kept set.
void reduce(WorkloadResult &Result) {
  const double Med = median(Result.Trials);
  const double Mad = medianAbsDeviation(Result.Trials);
  Result.Kept.clear();
  for (double V : Result.Trials)
    if (Mad <= 0 || std::abs(V - Med) <= 5 * Mad)
      Result.Kept.push_back(V);
  if (Result.Kept.empty())
    Result.Kept = Result.Trials;
  Result.Median = median(Result.Kept);
  Result.Mad = medianAbsDeviation(Result.Kept);
  Result.Cv = coefficientOfVariation(Result.Kept);
  Result.Min = *std::min_element(Result.Kept.begin(), Result.Kept.end());
  Result.Max = *std::max_element(Result.Kept.begin(), Result.Kept.end());
}

/// Runs the whole suite with trials interleaved round-robin: every
/// workload's Nth trial happens in the Nth sweep over the suite, so
/// time-varying machine state (frequency ramps, a noisy neighbour
/// mid-run) spreads across every workload's sample instead of landing
/// entirely on whichever workload was executing at that moment — the
/// dominant cross-run drift source for back-to-back compares.
std::vector<WorkloadResult>
runSuiteTrials(const std::vector<SuiteWorkload> &Suite,
               const SuiteOptions &Options, perf::CounterGroup &Counters) {
  std::vector<WorkloadResult> Results(Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I)
    Results[I].Work = &Suite[I];
  for (size_t W = 0; W != Options.Warmup; ++W)
    for (const SuiteWorkload &Work : Suite)
      (void)Work.Run();
  for (size_t T = 0; T != Options.Trials; ++T)
    for (size_t I = 0; I != Suite.size(); ++I)
      Results[I].Trials.push_back(Suite[I].Run());
  for (WorkloadResult &Result : Results) {
    reduce(Result);
    // One extra instrumented pass; its wall time is not a trial, so
    // the PMU read and telemetry recording cannot perturb the reported
    // medians. The registry is reset before the pass so each
    // workload's telemetry section covers that pass alone instead of
    // accumulating across the suite.
    const bool TelemetryWasOn = telemetry::enabled();
    telemetry::resetAll();
    telemetry::setEnabled(true);
    if (Counters.live()) {
      perf::ScopedCounters Scope(Counters, Result.Pmu);
      (void)Result.Work->Run();
    } else {
      (void)Result.Work->Run();
    }
    Result.Telemetry = telemetry::toJson();
    telemetry::setEnabled(TelemetryWasOn);
  }
  return Results;
}

// --- Report ----------------------------------------------------------------

void writeWorkloadJson(std::FILE *F, const WorkloadResult &Result,
                       bool Last) {
  std::fprintf(F,
               "    {\"name\": \"%s\", \"unit\": \"%s\", "
               "\"units_per_trial\": %.0f,\n"
               "     \"median\": %.4f, \"mad\": %.4f, \"cv\": %.4f, "
               "\"min\": %.4f, \"max\": %.4f,\n"
               "     \"trials\": %zu, \"kept\": %zu, \"raw\": [",
               json::escapeString(Result.Work->Name).c_str(),
               json::escapeString(Result.Work->Unit).c_str(),
               Result.Work->UnitsPerTrial, Result.Median, Result.Mad,
               Result.Cv, Result.Min, Result.Max, Result.Trials.size(),
               Result.Kept.size());
  for (size_t I = 0; I != Result.Trials.size(); ++I)
    std::fprintf(F, "%s%.4f", I == 0 ? "" : ", ", Result.Trials[I]);
  std::fprintf(F, "],\n     \"pmu\": %s,\n     \"telemetry\": %s}%s\n",
               Result.Pmu.toJson(Result.Work->UnitsPerTrial).c_str(),
               Result.Telemetry.c_str(), Last ? "" : ",");
}

int runSuite(const SuiteOptions &Options) {
  auto Scorecard = std::make_shared<QualityScorecard>();
  std::vector<SuiteWorkload> Suite = buildSuite(Options, Scorecard);
  if (Options.List) {
    for (const SuiteWorkload &Work : Suite)
      std::printf("%s\n", Work.Name.c_str());
    return 0;
  }

  std::printf("== sepebench ==\n%zu workloads, %zu trials + %zu warmup "
              "each (%s mode)\npmu: %s\n\n",
              Suite.size(), Options.Trials, Options.Warmup,
              Options.Full ? "full" : "quick",
              perf::available() ? "available"
                                : perf::unavailableReason().c_str());

  perf::CounterGroup Counters;
  const std::vector<WorkloadResult> Results =
      runSuiteTrials(Suite, Options, Counters);
  TextTable Table({"Workload", "Unit", "Median", "MAD", "CV", "cyc/unit",
                   "IPC"});
  for (const WorkloadResult &Result : Results) {
    const SuiteWorkload &Work = *Result.Work;
    Table.addRow(
        {Work.Name, Work.Unit, formatDouble(Result.Median, 4),
         formatDouble(Result.Mad, 4), formatDouble(Result.Cv, 3),
         Result.Pmu.Valid
             ? formatDouble(Result.Pmu.cyclesPer(Work.UnitsPerTrial), 1)
             : "-",
         Result.Pmu.Valid ? formatDouble(Result.Pmu.ipc(), 2) : "-"});
  }
  std::printf("%s\n", Table.str().c_str());

  std::FILE *F = openJsonReport(Options.JsonPath, "sepebench");
  if (!F)
    return 1;
  std::fprintf(F, "  \"mode\": \"%s\",\n  \"trials\": %zu,\n"
               "  \"warmup\": %zu,\n  \"pmu_available\": %s,\n"
               "  \"pmu_reason\": \"%s\",\n  \"workloads\": [\n",
               Options.Full ? "full" : "quick", Options.Trials,
               Options.Warmup, perf::available() ? "true" : "false",
               json::escapeString(perf::unavailableReason()).c_str());
  for (size_t I = 0; I != Results.size(); ++I)
    writeWorkloadJson(F, Results[I], I + 1 == Results.size());
  std::fprintf(F, "  ],\n");
  closeJsonReport(F);
  std::printf("wrote %s (%zu workloads)\n", Options.JsonPath.c_str(),
              Results.size());

  if (!Scorecard->empty()) {
    if (writeQualityScorecard(Options.QualityJsonPath, *Scorecard))
      std::printf("wrote %s (%zu scorecard rows)\n",
                  Options.QualityJsonPath.c_str(), Scorecard->size());
    else
      std::fprintf(stderr, "error: cannot write quality scorecard '%s'\n",
                   Options.QualityJsonPath.c_str());
  }

  if (!Options.TracePath.empty()) {
    if (trace::writeChromeTrace(Options.TracePath))
      std::printf("trace written to %s (%llu events, %llu dropped)\n",
                  Options.TracePath.c_str(),
                  static_cast<unsigned long long>(trace::emitted()),
                  static_cast<unsigned long long>(trace::dropped()));
    else
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   Options.TracePath.c_str());
  }
  return 0;
}

// --- Comparator ------------------------------------------------------------

int runCompare(const SuiteOptions &Options) {
  const auto Slurp = [](const std::string &Path,
                        std::string &Out) -> bool {
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return false;
    }
    char Buffer[4096];
    size_t Got = 0;
    while ((Got = std::fread(Buffer, 1, sizeof(Buffer), F)) != 0)
      Out.append(Buffer, Got);
    std::fclose(F);
    return true;
  };
  std::string BaseText, NewText;
  if (!Slurp(Options.CompareBase, BaseText) ||
      !Slurp(Options.CompareNew, NewText))
    return 2;
  Expected<CompareReport> Report =
      compareSuiteReports(BaseText, NewText, Options.Thresholds);
  if (!Report) {
    std::fprintf(stderr, "error: %s\n", Report.error().Message.c_str());
    return 2;
  }
  std::printf("== sepebench --compare ==\nbase: %s\nnew:  %s\n"
              "thresholds: noise-k %.1f, abs floor %.3f, rel floor "
              "%.1f%%\n\n%s",
              Options.CompareBase.c_str(), Options.CompareNew.c_str(),
              Options.Thresholds.NoiseK, Options.Thresholds.AbsFloor,
              Options.Thresholds.RelFloor * 100, Report->render().c_str());
  return Report->hasRegression() ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  SuiteOptions Options;
  if (!parseSuiteOptions(Argc, Argv, Options))
    return 2;
  if (!Options.CompareBase.empty())
    return runCompare(Options);
  if (!Options.TracePath.empty())
    trace::setEnabled(true);
  return runSuite(Options);
}
