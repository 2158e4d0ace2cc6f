//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process generates the load and times calls into each layer's
/// public functions from outside. Three closed-loop workloads (see
/// perfbench/README.md for why each exists):
///
///   serve_drift   IPv4, 2^14 residents, Zipf 0.99, 50% gets / 50%
///                 churn, 25% of traffic moves to a drift set a quarter
///                 into the timed phase
///   serve_sealed  URL1, 2^20 keys sealed into the static MPHF lane,
///                 99% gets (10% of them for absent keys) / 1% churn
///   paper_hash    the paper's fig13 replay: all 8 formats, Inter60_20
///                 over Normal keys in std::unordered_map with the
///                 synthesized Pext hash, one thread
///
/// --trace 0 measures the end-to-end metrics; --trace 1 records spans
/// around sampled client calls, set-up phases and maintenance calls,
/// then runs the layer ladder and reports per-layer metrics. Either
/// way the full report (metrics with units and sample counts, checks,
/// host/build fingerprint) goes to --report as JSON.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --report FILE [--spans FILE]
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "spans.h"

#include "container/flat_index_map.h"
#include "container/sharded_index_map.h"
#include "core/jit.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "mphf/mphf.h"
#include "runtime/serving_table.h"
#include "support/cpu_features.h"
#include "support/json.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace sepe;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Command line and report
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ReportPath;
  std::string SpansPath;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const std::string Arg = Argv[I + 1];
    try {
      if (Flag == "--workload")
        O.Workload = Arg;
      else if (Flag == "--seed")
        O.Seed = std::stoull(Arg);
      else if (Flag == "--seconds")
        O.Seconds = std::stod(Arg);
      else if (Flag == "--trace")
        O.Trace = std::stoi(Arg) != 0;
      else if (Flag == "--report")
        O.ReportPath = Arg;
      else if (Flag == "--spans")
        O.SpansPath = Arg;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return (Argc % 2) == 1 && !O.Workload.empty() && !O.ReportPath.empty() &&
         O.Seconds > 0;
}

std::string jsonString(std::string_view S) {
  return "\"" + json::escapeString(S) + "\"";
}

/// Values printed with their integer part, space-separated.
std::string joined(const std::vector<double> &Values) {
  std::string S;
  for (double V : Values)
    S += (S.empty() ? "" : " ") + std::to_string(std::llround(V));
  return S;
}

/// Named metrics, each with a unit and the number of samples behind it
/// (0 for a single measurement or a count), plus string labels.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit,
              uint64_t Samples = 0) {
    Metrics.push_back({Name, Value, Unit, Samples});
  }
  void label(const std::string &Name, const std::string &Value) {
    Labels.emplace_back(Name, Value);
  }
  /// p50 and p99 as <Prefix>_p50_ns / <Prefix>_p99_ns: the trimmed mean
  /// over windows of each window's percentile, with the samples behind
  /// them. A window with fewer than ten samples beyond a percentile
  /// gives none; a percentile no window gives is left out.
  void latency(const std::string &Prefix,
               const std::vector<std::vector<uint32_t>> &Windows) {
    for (const auto &[Q, Suffix] :
         {std::pair{0.50, "_p50_ns"}, std::pair{0.99, "_p99_ns"}}) {
      std::vector<double> Values;
      uint64_t Samples = 0;
      for (const std::vector<uint32_t> &Sorted : Windows) {
        const Percentile P = percentile(Sorted, Q);
        if (!P.Valid)
          continue;
        Values.push_back(P.Value);
        Samples += P.Samples;
      }
      label("windows." + Prefix + Suffix, joined(Values));
      if (!Values.empty())
        metric(Prefix + Suffix, trimmedMean(Values, false), "ns",
               Samples);
      else
        std::fprintf(stderr, "perfbench: %s%s dropped\n", Prefix.c_str(),
                     Suffix);
    }
  }

  bool write(const Options &O, size_t Clients, const Tally &T,
             const std::string &Extra) const {
    std::FILE *F = std::fopen(O.ReportPath.c_str(), "w");
    if (!F)
      return false;
    std::string S = "{\n";
    S += "  \"workload\": " + jsonString(O.Workload) + ",\n";
    S += "  \"seed\": " + std::to_string(O.Seed) + ",\n";
    S += "  \"seconds\": " + std::to_string(O.Seconds) + ",\n";
    S += "  \"trace\": " + std::string(O.Trace ? "1" : "0") + ",\n";
    S += "  \"clients\": " + std::to_string(Clients) + ",\n";
    S += "  \"attempted\": " + std::to_string(T.Attempted) + ",\n";
    S += "  \"failed\": " + std::to_string(T.Failed) + ",\n";
    S += "  \"fingerprint\": {";
    S += "\"cpu_model\": " + jsonString(cpuModel());
    S += ", \"nproc\": " + std::to_string(hostCpus());
    S += ", \"clocksource\": " +
         jsonString(readFirstLine("/sys/devices/system/clocksource/"
                                  "clocksource0/current_clocksource"));
    S += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
    S += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    S += ", \"sepe_options\": " + jsonString(PERFBENCH_SEPE_OPTIONS);
    S += ", \"cpu_features\": " + jsonString(cpuFeatureString());
    S += ", \"jit_available\": " +
         std::string(jitAvailable() ? "true" : "false");
    S += "},\n  \"metrics\": {";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      char Num[64];
      std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].Value);
      S += std::string(I ? ",\n" : "\n") + "    " +
           jsonString(Metrics[I].Name) + ": {\"value\": " + Num +
           ", \"unit\": " + jsonString(Metrics[I].Unit) +
           ", \"samples\": " + std::to_string(Metrics[I].Samples) + "}";
    }
    S += "\n  },\n  \"labels\": {";
    for (size_t I = 0; I != Labels.size(); ++I)
      S += std::string(I ? ", " : "") + jsonString(Labels[I].first) + ": " +
           jsonString(Labels[I].second);
    S += "}";
    S += Extra;
    S += "\n}\n";
    const bool Ok = std::fputs(S.c_str(), F) >= 0;
    return std::fclose(F) == 0 && Ok;
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
    uint64_t Samples;
  };
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Labels;

public:
  /// Adds every metric of \p Table not reported yet, as 0: the layer
  /// exists but this workload does not exercise it.
  void
  fillMissing(const std::vector<std::pair<const char *, const char *>> &Table) {
    for (const auto &[Name, Unit] : Table) {
      bool Seen = false;
      for (const Metric &M : Metrics)
        Seen |= M.Name == Name;
      if (!Seen)
        metric(Name, 0, Unit);
    }
  }
};

/// Every per-layer metric a traced run reports, with its unit. Ladder
/// rungs are cumulative ns per key; layer ns metrics are self times
/// (a rung minus the rung below it).
const std::vector<std::pair<const char *, const char *>> PerLayerMetrics = {
    {"core.synthesize.plan_us", "us"},
    {"core.jit.attach_us", "us"},
    {"core.jit.code_bytes", "bytes"},
    {"core.executor.single_ns_per_key", "ns"},
    {"core.executor.batch_ns_per_key", "ns"},
    {"core.executor.rung", "enum"},
    {"hashes.stl_ns_per_key", "ns"},
    {"runtime.adaptive.route_ns_per_key", "ns"},
    {"runtime.adaptive.route_batch_ns_per_key", "ns"},
    {"runtime.adaptive.guard_pass_share", "share"},
    {"runtime.adaptive.swaps", "count"},
    {"runtime.adaptive.pump_ms", "ms"},
    {"container.flat.find_hashed_ns_per_key", "ns"},
    {"container.flat.max_probe_groups", "groups"},
    {"container.sharded.get_hashed_ns_per_key", "ns"},
    {"container.sharded.get_batch_hashed_ns_per_key", "ns"},
    {"container.sharded.shared_contended_share", "share"},
    {"container.sharded.put_ns", "ns"},
    {"container.sharded.unique_contended_share", "share"},
    {"container.sharded.migrate_ms", "ms"},
    {"runtime.serving.get_ns", "ns"},
    {"runtime.serving.get_batch_ns_per_key", "ns"},
    {"runtime.serving.put_ns", "ns"},
    {"runtime.serving.erase_ns", "ns"},
    {"runtime.serving.maintain_ms", "ms"},
    {"runtime.serving.spill_keys_peak", "count"},
    {"runtime.serving.swept_keys", "count"},
    {"runtime.serving.put_batch_ns_per_key", "ns"},
    {"runtime.serving.seal_s", "s"},
    {"mphf.build_s", "s"},
    {"mphf.bits_per_key", "bits"},
    {"mphf.eval_ns_per_key", "ns"},
    {"mphf.eval_batch_ns_per_key", "ns"},
    {"bench.clock_read_ns", "ns"},
    {"bench.trace_overhead_share", "share"},
    {"ladder.hash_ns", "ns"},
    {"ladder.route_ns", "ns"},
    {"ladder.flat_ns", "ns"},
    {"ladder.sharded_ns", "ns"},
    {"ladder.mphf_ns", "ns"},
    {"ladder.serving_ns", "ns"},
    {"ladder.umap_find_ns", "ns"},
    {"ladder.batch.hash_ns_per_key", "ns"},
    {"ladder.batch.route_ns_per_key", "ns"},
    {"ladder.batch.flat_ns_per_key", "ns"},
    {"ladder.batch.sharded_ns_per_key", "ns"},
    {"ladder.batch.mphf_ns_per_key", "ns"},
    {"ladder.batch.serving_ns_per_key", "ns"},
    {"ladder.sharded_put_ns", "ns"},
    {"ladder.serving_put_ns", "ns"},
    {"ladder.serving_erase_ns", "ns"},
    {"ladder.monotone", "bool"},
};

/// Spans summarized as {name: {self_ns_total, count}} for the report.
std::string spanSummaryJson(const Tracer &T, const std::string &SpansPath) {
  std::string S = ",\n  \"spans\": {\"file\": " + jsonString(SpansPath) +
                  ", \"count\": " + std::to_string(T.spanCount()) +
                  ", \"self_ns\": {";
  bool First = true;
  for (const auto &[Name, E] : T.selfTimes()) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "{\"total\": %.0f, \"count\": %llu}",
                  E.first, static_cast<unsigned long long>(E.second));
    S += std::string(First ? "" : ", ") + jsonString(Name) + ": " + Buf;
    First = false;
  }
  return S + "}}";
}

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

constexpr size_t BatchKeys = 64; ///< Keys per batch get.
constexpr uint64_t TimedEvery = 4; ///< 1 in N client ops is timed.
constexpr uint64_t SpannedEvery = 1024; ///< 1 in N client ops is spanned.
constexpr double WarmupSeconds = 0.5;

/// Tags stored values so that every key in a run maps to a distinct
/// value across all of its key sets.
constexpr uint64_t valueTag(uint64_t Set) { return Set << 40; }

KeyPattern patternOf(const KeyFormat &F) {
  Expected<FormatSpec> Spec = parseRegex(F.Regex);
  if (!Spec) {
    std::fprintf(stderr, "perfbench: cannot parse %s\n", F.Regex);
    std::exit(3);
  }
  return Spec->abstract();
}

/// core.synthesize and core.jit costs for \p Formats: the median over
/// repetitions of regex parse + synthesis and of attach (kernel
/// selection + JIT emission), summed over the formats.
void measureSynthesis(const std::vector<const KeyFormat *> &Formats,
                      Report &R) {
  std::vector<double> PlanUs, AttachUs;
  size_t CodeBytes = 0;
  int Rung = 99;
  std::string Rungs;
  for (int Rep = 0; Rep != 15; ++Rep) {
    double Plan = 0, Attach = 0;
    CodeBytes = 0;
    Rungs.clear();
    for (const KeyFormat *F : Formats) {
      const uint64_t T0 = nowNs();
      Expected<HashPlan> P = synthesize(patternOf(*F), HashFamily::Pext);
      const uint64_t T1 = nowNs();
      const SynthesizedHash H(P.take());
      const uint64_t T2 = nowNs();
      Plan += static_cast<double>(T1 - T0) / 1e3;
      Attach += static_cast<double>(T2 - T1) / 1e3;
      if (const JitProgram *J = H.jitProgram())
        CodeBytes += J->codeBytes();
      Rung = std::min(Rung, static_cast<int>(H.batchPath()));
      Rungs += std::string(Rungs.empty() ? "" : " ") + F->Name + "=" +
               H.batchPathName();
    }
    PlanUs.push_back(Plan);
    AttachUs.push_back(Attach);
  }
  R.metric("core.synthesize.plan_us", median(PlanUs), "us", PlanUs.size());
  R.metric("core.jit.attach_us", median(AttachUs), "us", AttachUs.size());
  R.metric("core.jit.code_bytes", static_cast<double>(CodeBytes), "bytes");
  // BatchPath enum order: 1 scalar, 2 interleaved, 3 avx2, 4 jit; the
  // lowest rung any of the workload's formats resolved to.
  R.metric("core.executor.rung", Rung, "enum");
  R.label("core.executor.rung", Rungs);
}

/// Runs Step(Tid, Pos) on \p Threads threads at once for \p Seconds;
/// Step processes the keys at stream position Pos and returns how
/// many. Returns the mean over threads of ns per key: the per-call
/// cost each client sees at this concurrency.
double perKeyNs(size_t Threads, double Seconds,
                const std::function<size_t(size_t, size_t)> &Step) {
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Ready{0};
  std::vector<double> Ns(Threads, 0.0);
  std::vector<std::thread> Pool;
  for (size_t T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() != Threads) {
      }
      size_t Keys = 0, Pos = 0;
      const uint64_t Start = nowNs();
      while (!Stop.load(std::memory_order_relaxed)) {
        const size_t N = Step(T, Pos);
        Keys += N;
        Pos += N;
      }
      Ns[T] = static_cast<double>(nowNs() - Start) /
              static_cast<double>(std::max<size_t>(Keys, 1));
    });
  while (Ready.load() != Threads) {
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
  Stop.store(true);
  for (std::thread &T : Pool)
    T.join();
  double Sum = 0;
  for (double V : Ns)
    Sum += V;
  return Sum / static_cast<double>(Threads);
}

/// Runs each rung in turn, \p Passes times interleaved, and returns the
/// per-rung medians — interleaving spreads slow phases of the host over
/// all rungs instead of one.
std::vector<double>
ladder(size_t Threads,
       const std::vector<std::function<size_t(size_t, size_t)>> &Rungs,
       int Passes = 5, double Seconds = 0.15) {
  std::vector<std::vector<double>> Runs(Rungs.size());
  for (int P = 0; P != Passes; ++P)
    for (size_t I = 0; I != Rungs.size(); ++I)
      Runs[I].push_back(perKeyNs(Threads, Seconds, Rungs[I]));
  std::vector<double> Out;
  for (const auto &V : Runs)
    Out.push_back(median(V));
  return Out;
}

/// True when no rung of \p Chain is below the rung under it by more
/// than 3 %: two rungs doing the same work (a layer whose self time is
/// ~0) differ by measurement noise only.
bool nonDecreasing(const std::vector<double> &Chain) {
  for (size_t I = 1; I < Chain.size(); ++I)
    if (Chain[I] < Chain[I - 1] * 0.97)
      return false;
  return true;
}

/// Keeps computed values alive past the optimizer without a shared
/// cache line between ladder threads.
thread_local uint64_t LocalSink = 0;
inline void sink(uint64_t V) { LocalSink += V; }

/// The timed phase's clock: warm-up, then the measured phase cut into
/// equal windows, with the drift onset a quarter in. For each window it
/// also records the share of the machine's busy CPU time the
/// hypervisor stole (hostCpuTicks), reported as a label. In a traced
/// run tracing is on in the odd windows only, so the overhead is
/// measured on the same table at the same point in the run.
struct PhaseClock {
  static constexpr size_t Windows = 40;
  /// The first window after the drift onset.
  static constexpr size_t DriftWindow = Windows / 4;
  std::atomic<int> Phase{0}; ///< 0 warm-up, 1 measured, 2 stop.
  std::atomic<size_t> Window{0};
  std::atomic<bool> DriftOn{false};
  std::atomic<bool> TraceOn{false};
  double WindowS[Windows] = {};
  double StealShare[Windows] = {};

  void run(double Seconds, bool Drift, bool Trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(WarmupSeconds));
    const uint64_t Start = nowNs();
    uint64_t WindowStart = Start;
    CpuTicks TicksStart = hostCpuTicks();
    size_t Current = 0;
    Phase.store(1);
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const uint64_t Now = nowNs();
      const double Elapsed = static_cast<double>(Now - Start) / 1e9;
      if (Drift && Elapsed >= Seconds / 4)
        DriftOn.store(true, std::memory_order_relaxed);
      const size_t W = static_cast<size_t>(Elapsed / (Seconds / Windows));
      if (W == Current)
        continue;
      WindowS[Current] = static_cast<double>(Now - WindowStart) / 1e9;
      WindowStart = Now;
      const CpuTicks Ticks = hostCpuTicks();
      const uint64_t Busy = Ticks.Busy - TicksStart.Busy;
      StealShare[Current] =
          Busy ? static_cast<double>(Ticks.Steal - TicksStart.Steal) / Busy
               : 0.0;
      TicksStart = Ticks;
      if (W >= Windows)
        break;
      Current = W;
      TraceOn.store(Trace && W % 2 == 1, std::memory_order_relaxed);
      Window.store(W, std::memory_order_relaxed);
    }
    Phase.store(2);
  }
};

/// What one client measured in one window.
struct WindowStats {
  explicit WindowStats(uint64_t Seed)
      : Get(1u << 16, Seed + 1), Batch(1u << 14, Seed + 2),
        Put(1u << 16, Seed + 3) {}
  LatencySampler Get, Batch, Put;
  uint64_t Served = 0;
};

/// Per-client state, one cache line apart.
struct alignas(64) Client {
  explicit Client(uint64_t Seed) : Rng(Seed) {
    for (size_t W = 0; W != PhaseClock::Windows; ++W)
      Win.emplace_back(Seed + 8 * W);
  }
  SplitMix Rng;
  std::vector<WindowStats> Win;
  Tally Checks;
  uint64_t Tick = 0;
  SpanLog *Log = nullptr;

  /// The window an operation starting now is counted in; null during
  /// warm-up, when nothing is counted or timed.
  WindowStats *window(const PhaseClock &Clock) {
    if (Clock.Phase.load(std::memory_order_relaxed) != 1)
      return nullptr;
    return &Win[Clock.Window.load(std::memory_order_relaxed)];
  }
};

/// Set-up runs at least three times, and more while the repetitions
/// stay quick, so that even a millisecond set-up reports a median over
/// many; the last repetition's state serves the timed phase.
bool moreSetupReps(const std::vector<double> &SetupS) {
  double Total = 0;
  for (double S : SetupS)
    Total += S;
  return SetupS.size() < 3 || (Total < 2.0 && SetupS.size() < 2001);
}

/// End-to-end metrics common to every workload: the mean over the
/// timed phase's windows of each window's value, leaving out the slowest
/// tenth of the windows. The host's speed moves by 10-30 % from one
/// window to the next and from one run to the next, so a mean over many
/// windows repeats better than any one window; the trim drops the
/// windows in which the hypervisor took vCPUs away. Throughput is
/// charged only for the CPU time the host left the machine: a window's
/// rate is divided by 1 - steal, as the hypervisor at times keeps over
/// half of the busy CPU time for whole runs. A drifting workload uses
/// only the windows after the drift onset: the drifted traffic is what
/// it measures.
void reportEndToEnd(Report &R, const std::vector<Client> &Clients,
                    const PhaseClock &Clock, const std::vector<double> &SetupS,
                    double BytesPerKey, bool Trace, bool Drift) {
  constexpr size_t Windows = PhaseClock::Windows;
  const size_t First = Drift ? PhaseClock::DriftWindow : 0;
  std::vector<double> Rate(Windows), Steal(Windows);
  uint64_t Served = 0;
  for (size_t W = 0; W != Windows; ++W) {
    uint64_t N = 0;
    for (const Client &C : Clients)
      N += C.Win[W].Served;
    if (W >= First)
      Served += N;
    Rate[W] = static_cast<double>(N) / Clock.WindowS[W] /
              (1.0 - std::min(Clock.StealShare[W], 0.9));
    Steal[W] = Clock.StealShare[W] * 1000;
  }
  R.label("windows.rate", joined(Rate));
  R.label("windows.steal_permille", joined(Steal));
  if (Trace) {
    // Odd windows ran traced, even ones untraced.
    std::vector<double> On, Off;
    for (size_t W = 0; W != Windows; ++W)
      (W % 2 ? On : Off).push_back(Rate[W]);
    R.metric("bench.trace_overhead_share", 1.0 - median(On) / median(Off),
             "share");
    return;
  }
  R.label("windows.used", std::to_string(First) + ".." +
                              std::to_string(Windows - 1));
  R.metric("ops_per_s", trimmedMean({Rate.begin() + First, Rate.end()}, true),
           "1/s", Served);
  using Kind = LatencySampler WindowStats::*;
  for (const auto &[Prefix, Member] :
       {std::pair<const char *, Kind>{"get", &WindowStats::Get},
        std::pair<const char *, Kind>{"batch_get", &WindowStats::Batch},
        std::pair<const char *, Kind>{"put", &WindowStats::Put}}) {
    std::vector<std::vector<uint32_t>> PerWindow;
    for (size_t W = First; W != Windows; ++W) {
      std::vector<const LatencySampler *> Parts;
      for (const Client &C : Clients)
        Parts.push_back(&(C.Win[W].*Member));
      PerWindow.push_back(mergeSamples(Parts));
    }
    R.latency(Prefix, PerWindow);
  }
  R.metric("setup_s", median(SetupS), "s", SetupS.size());
  R.metric("bytes_per_key", BytesPerKey, "B");
}

//===----------------------------------------------------------------------===//
// serve_* workloads
//===----------------------------------------------------------------------===//

struct ServeSpec {
  const char *Format;
  size_t Residents;
  size_t Churn;        ///< In-format keys under put/erase.
  size_t Absent;       ///< Never-stored keys that gets ask for.
  double ZipfTheta;    ///< 0: uniform choice of residents.
  unsigned GetPct;     ///< Share of ops that are gets; the rest churn.
  unsigned AbsentPct;  ///< Share of gets aimed at absent keys.
  unsigned DriftPct;   ///< Share of traffic on the drift set after onset.
  bool Seal;           ///< sealStatic() the residents at set-up.
};

constexpr size_t LadderWrites = 1u << 15; ///< Fresh keys for write rungs.

ServeSpec serveSpec(const std::string &Workload) {
  if (Workload == "serve_drift")
    return {"IPv4", 1u << 14, 1u << 14, 0, 0.99, 50, 0, 25, false};
  return {"URL1", 1u << 20, 1u << 14, 1u << 16, 0.0, 99, 10, 0, true};
}

/// The drift probe: a letter written over the first character, which
/// every serve_* format defines as a digit or a constant 'h'.
constexpr size_t DriftPos = 0;
constexpr char DriftByte = 'x';

class ServeBench {
public:
  ServeBench(const Options &O, ServeSpec Spec)
      : O(O), Spec(Spec), Format(formatNamed(Spec.Format)),
        Clients(clientThreads(3, hostCpus())) {}

  int run() {
    makeKeys();
    if (std::string Dup = findDuplicate(allKeys()); !Dup.empty()) {
      std::fprintf(stderr, "perfbench: key sets overlap: %s\n", Dup.c_str());
      return 3;
    }
    Tracer Spans;
    SpanLog *MainLog = O.Trace ? Spans.log(0) : nullptr;

    // Set-up, several times; the last table serves the timed phase.
    std::vector<double> SetupS, PutBatchNs, SealS;
    double BytesPerKey = 0;
    for (int Rep = 0; moreSetupReps(SetupS); ++Rep) {
      Table.reset();
      // Only the first set-up starts from a trimmed heap (for
      // bytes_per_key); later ones reuse what the previous one freed,
      // so their time is the library's, not the kernel's page faults.
      const size_t RssBefore = Rep == 0 ? trimmedResidentBytes() : 0;
      const uint64_t T0 = nowNs();
      setup(MainLog, PutBatchNs, SealS);
      SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      if (Rep == 0)
        BytesPerKey = (static_cast<double>(residentBytes()) -
                       static_cast<double>(RssBefore)) /
                      static_cast<double>(Residents.size());
    }

    const uint64_t PassesBefore = Table->adaptive().guardPasses();
    const uint64_t MissesBefore = Table->adaptive().guardMisses();
    std::vector<Client> States;
    for (size_t T = 0; T != Clients; ++T) {
      States.emplace_back(streamSeed(O.Seed, 100 + T));
      if (O.Trace)
        States.back().Log = Spans.log(static_cast<uint32_t>(T + 1));
    }
    SpanLog *MaintLog = O.Trace ? Spans.log(99) : nullptr;
    PhaseClock Clock;
    std::vector<std::thread> Threads;
    for (size_t T = 0; T != Clients; ++T)
      Threads.emplace_back([&, T] { clientLoop(States[T], T, Clock); });
    Threads.emplace_back([&] { maintenanceLoop(Clock, MaintLog); });
    Clock.run(O.Seconds, Spec.DriftPct != 0, O.Trace);
    for (std::thread &T : Threads)
      T.join();

    Tally Checks;
    for (const Client &C : States)
      Checks.add(C.Checks);
    finalVerify(Checks);

    Report R;
    reportEndToEnd(R, States, Clock, SetupS, BytesPerKey, O.Trace,
                   Spec.DriftPct != 0);
    std::string Extra;
    if (O.Trace) {
      const uint64_t Passes = Table->adaptive().guardPasses() - PassesBefore;
      const uint64_t Misses = Table->adaptive().guardMisses() - MissesBefore;
      R.metric("runtime.adaptive.guard_pass_share",
               static_cast<double>(Passes) /
                   static_cast<double>(std::max<uint64_t>(Passes + Misses, 1)),
               "share", Passes + Misses);
      R.metric("runtime.adaptive.swaps",
               static_cast<double>(Table->adaptive().swaps()), "count");
      R.metric("runtime.adaptive.pump_ms", PumpNs / 1e6, "ms", PumpCalls);
      R.metric("runtime.serving.maintain_ms", MaintainNs / 1e6, "ms",
               MaintainCalls);
      R.metric("container.sharded.migrate_ms", MigrateNs / 1e6, "ms");
      R.metric("runtime.serving.spill_keys_peak",
               static_cast<double>(SpillPeak), "count");
      const auto Stats = Table->stats();
      R.metric("runtime.serving.swept_keys",
               static_cast<double>(Stats.SweptKeys), "count");
      contention(R);
      R.metric("runtime.serving.put_batch_ns_per_key", median(PutBatchNs),
               "ns", PutBatchNs.size());
      R.metric("runtime.serving.seal_s", Spec.Seal ? median(SealS) : 0.0, "s",
               SealS.size());
      measureSynthesis({&Format}, R);
      layerLadder(R, Checks);
      R.metric("bench.clock_read_ns", clockReadNs(), "ns");
      if (!O.SpansPath.empty() && !Spans.writeChrome(O.SpansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     O.SpansPath.c_str());
      Extra = spanSummaryJson(Spans, O.SpansPath);
      R.fillMissing(PerLayerMetrics);
    }
    if (!R.write(O, Clients, Checks, Extra)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   O.ReportPath.c_str());
      return 3;
    }
    return 0;
  }

private:
  void makeKeys() {
    const size_t Total =
        Spec.Residents + Spec.Churn + Spec.Absent + LadderWrites;
    const std::vector<uint64_t> Values = distinctValues(
        Format, Total, Distribution::Uniform, streamSeed(O.Seed, 1));
    SplitMix Pad(streamSeed(O.Seed, 2));
    const size_t Len = Format.Shape.size();
    Residents = KeySet(Len);
    Churn = KeySet(Len);
    Absent = KeySet(Len);
    Writes = KeySet(Len);
    size_t I = 0;
    for (auto [Set, N] : {std::pair{&Residents, Spec.Residents},
                          std::pair{&Churn, Spec.Churn},
                          std::pair{&Absent, Spec.Absent},
                          std::pair{&Writes, LadderWrites}}) {
      Set->reserve(N);
      for (size_t K = 0; K != N; ++K)
        Set->push(encodeKey(Format, Values[I++], &Pad));
    }
    if (Spec.DriftPct != 0) {
      DriftRes = driftKeys(Residents, DriftPos, DriftByte);
      std::vector<std::string> Taken;
      for (size_t K = 0; K != DriftRes.size(); ++K)
        Taken.emplace_back(DriftRes[K]);
      std::sort(Taken.begin(), Taken.end());
      DriftChurn = driftKeys(Churn, DriftPos, DriftByte, Taken);
    }
    ResidentViews = Residents.views();
    ResidentValues.resize(Residents.size());
    for (size_t K = 0; K != ResidentValues.size(); ++K)
      ResidentValues[K] = valueTag(0) + K;
    DriftValues.resize(DriftRes.size());
    for (size_t K = 0; K != DriftValues.size(); ++K)
      DriftValues[K] = valueTag(1) + K;
    DriftPut = std::make_unique<std::atomic<uint8_t>[]>(DriftRes.size());
    if (Spec.ZipfTheta > 0) {
      Zipf = std::make_unique<ZipfChooser>(Residents.size(), Spec.ZipfTheta,
                                           streamSeed(O.Seed, 3));
      if (DriftRes.size() != 0)
        DriftZipf = std::make_unique<ZipfChooser>(
            DriftRes.size(), Spec.ZipfTheta, streamSeed(O.Seed, 4));
    }
  }

  std::vector<std::string_view> allKeys() const {
    std::vector<std::string_view> All;
    for (const KeySet *S :
         {&Residents, &DriftRes, &Churn, &DriftChurn, &Absent, &Writes})
      for (size_t I = 0; I != S->size(); ++I)
        All.push_back((*S)[I]);
    return All;
  }

  static AdaptiveOptions adaptiveOptions() {
    AdaptiveOptions A;
    A.Family = HashFamily::Pext; // Bijective where it can be: fast lane.
    A.Background = false;        // The maintenance thread pumps swaps.
    A.Cooldown = std::chrono::milliseconds(0);
    return A;
  }

  void setup(SpanLog *Log, std::vector<double> &PutBatchNs,
             std::vector<double> &SealS) {
    ScopedSpan Root(Log, "setup");
    KeyPattern Pattern;
    {
      ScopedSpan S(Log, "core.synthesize.parse_regex", Root.index());
      Pattern = patternOf(Format);
    }
    {
      ScopedSpan S(Log, "runtime.serving.construct", Root.index());
      Table = std::make_unique<ServingTable<uint64_t>>(
          std::move(Pattern), adaptiveOptions(), 16);
    }
    {
      ScopedSpan S(Log, "runtime.serving.put_batch", Root.index());
      const uint64_t T0 = nowNs();
      Table->putBatch(ResidentViews.data(), ResidentValues.data(),
                      ResidentViews.size());
      PutBatchNs.push_back(static_cast<double>(nowNs() - T0) /
                           static_cast<double>(ResidentViews.size()));
    }
    if (Spec.Seal) {
      ScopedSpan S(Log, "runtime.serving.seal_static", Root.index());
      const uint64_t T0 = nowNs();
      Sealed = Table->sealStatic(ResidentViews);
      SealS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    }
  }

  /// What a get of a key must return.
  enum class Expect : uint8_t { Stored, Absent, Churned };

  struct Pick {
    std::string_view Key;
    uint64_t Want;
    Expect E;
  };

  size_t pickDrift(SplitMix &Rng) const {
    return DriftZipf ? (*DriftZipf)(Rng) : Rng.below(DriftRes.size());
  }

  /// A key for a get. Drift residents enter the table only when a
  /// client puts them, so one is expected present only once a put of
  /// it has returned (read before the get is issued).
  Pick pickGet(SplitMix &Rng, bool Drift) const {
    if (Drift && DriftRes.size() != 0 && Rng.below(100) < Spec.DriftPct) {
      const size_t I = pickDrift(Rng);
      return {DriftRes[I], DriftValues[I],
              DriftPut[I].load(std::memory_order_acquire) ? Expect::Stored
                                                          : Expect::Churned};
    }
    if (Spec.AbsentPct != 0 && Rng.below(100) < Spec.AbsentPct)
      return {Absent[Rng.below(Absent.size())], 0, Expect::Absent};
    const size_t I = Zipf ? (*Zipf)(Rng) : Rng.below(Residents.size());
    return {Residents[I], ResidentValues[I], Expect::Stored};
  }

  static void checkGet(Tally &T, Expect E, bool Found, uint64_t Got,
                       uint64_t Want) {
    switch (E) {
    case Expect::Stored:
      T.stored(Found, Got, Want);
      break;
    case Expect::Absent:
      T.absent(Found);
      break;
    case Expect::Churned:
      T.churned(Found, Got, Want);
      break;
    }
  }

  void clientLoop(Client &C, size_t Tid, const PhaseClock &Clock) {
    std::string_view Keys[BatchKeys];
    uint64_t Want[BatchKeys], Out[BatchKeys];
    uint8_t Found[BatchKeys];
    Expect Expects[BatchKeys];
    ServingTable<uint64_t> &T = *Table;
    while (Clock.Phase.load(std::memory_order_relaxed) != 2) {
      const bool Drift = Clock.DriftOn.load(std::memory_order_relaxed);
      const bool Traced = Clock.TraceOn.load(std::memory_order_relaxed);
      ++C.Tick;
      WindowStats *W = C.window(Clock);
      const bool Timed = W && C.Tick % TimedEvery == 0;
      SpanLog *Log = Traced && C.Tick % SpannedEvery == 1 ? C.Log : nullptr;
      const uint64_t OpId = (static_cast<uint64_t>(Tid + 1) << 48) | C.Tick;
      if (C.Rng.below(100) < Spec.GetPct) {
        if (C.Rng.below(16) == 0) {
          ScopedSpan Op(Log, "client.get_batch", -1, OpId);
          for (size_t I = 0; I != BatchKeys; ++I) {
            const Pick P = pickGet(C.Rng, Drift);
            Keys[I] = P.Key;
            Want[I] = P.Want;
            Expects[I] = P.E;
          }
          const uint64_t T0 = Timed ? nowNs() : 0;
          {
            ScopedSpan Call(Log, "runtime.serving.get_batch", Op.index(), OpId);
            T.getBatch(Keys, Out, Found, BatchKeys);
          }
          if (Timed)
            W->Batch.add(nowNs() - T0);
          for (size_t I = 0; I != BatchKeys; ++I)
            checkGet(C.Checks, Expects[I], Found[I], Out[I], Want[I]);
          if (W)
            W->Served += BatchKeys;
        } else {
          ScopedSpan Op(Log, "client.get", -1, OpId);
          const Pick P = pickGet(C.Rng, Drift);
          uint64_t V = 0;
          const uint64_t T0 = Timed ? nowNs() : 0;
          bool Hit;
          {
            ScopedSpan Call(Log, "runtime.serving.get", Op.index(), OpId);
            Hit = T.get(P.Key, V);
          }
          if (Timed)
            W->Get.add(nowNs() - T0);
          checkGet(C.Checks, P.E, Hit, V, P.Want);
          if (W)
            W->Served += 1;
        }
        continue;
      }
      // Writes: put or erase one key of the churn set. Once drift is
      // on, drift traffic writes out-of-format keys instead: half of
      // its puts insert a drift resident (which gets then expect
      // present), the rest put or erase the drifted churn set.
      const bool DriftKey = Drift && DriftChurn.size() != 0 &&
                            C.Rng.below(100) < Spec.DriftPct;
      const bool IsPut = C.Rng.below(2) == 0;
      const bool DriftResident = DriftKey && IsPut && C.Rng.below(2) == 0;
      const KeySet &Set = DriftKey ? DriftChurn : Churn;
      const size_t I =
          DriftResident ? pickDrift(C.Rng) : C.Rng.below(Set.size());
      const std::string_view Key = DriftResident ? DriftRes[I] : Set[I];
      const uint64_t Value = DriftResident ? DriftValues[I]
                                           : valueTag(DriftKey ? 3 : 2) + I;
      ScopedSpan Op(Log, IsPut ? "client.put" : "client.erase", -1, OpId);
      const uint64_t T0 = Timed ? nowNs() : 0;
      {
        ScopedSpan Call(Log,
                        IsPut ? "runtime.serving.put" : "runtime.serving.erase",
                        Op.index(), OpId);
        if (IsPut)
          T.put(Key, Value);
        else
          T.erase(Key);
      }
      if (Timed)
        W->Put.add(nowNs() - T0);
      if (DriftResident)
        DriftPut[I].store(1, std::memory_order_release);
      if (W)
        W->Served += 1;
    }
  }

  void maintenanceLoop(const PhaseClock &Clock, SpanLog *Log) {
    ServingTable<uint64_t> &T = *Table;
    uint64_t Epoch = T.adaptive().epoch();
    uint64_t Tick = 0;
    while (Clock.Phase.load(std::memory_order_relaxed) != 2) {
      if (T.adaptive().resynthesisPending()) {
        ScopedSpan S(Log, "runtime.adaptive.pump_resynthesis");
        const uint64_t T0 = nowNs();
        T.adaptive().pumpResynthesis();
        PumpNs += static_cast<double>(nowNs() - T0);
        ++PumpCalls;
      }
      {
        // A maintain() that sees a new adaptive epoch migrates the
        // fast lane and then sweeps the spill lane, so the spill is
        // sampled there (stats() takes every shard lock, so elsewhere
        // only now and then).
        const uint64_t Now = T.adaptive().epoch();
        if (Now != Epoch || ++Tick % 64 == 0)
          SpillPeak = std::max(SpillPeak, T.stats().SpillSize);
        ScopedSpan S(Log, "runtime.serving.maintain");
        const uint64_t T0 = nowNs();
        T.maintain();
        const double Ns = static_cast<double>(nowNs() - T0);
        MaintainNs += Ns;
        ++MaintainCalls;
        if (Now != Epoch)
          MigrateNs += Ns;
        Epoch = Now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  /// Converges the table, then checks every key the run touched.
  void finalVerify(Tally &Checks) {
    ServingTable<uint64_t> &T = *Table;
    if (T.adaptive().resynthesisPending())
      T.adaptive().pumpResynthesis();
    T.maintain();
    SpillPeak = std::max(SpillPeak, T.stats().SpillSize);
    uint64_t V = 0;
    for (size_t I = 0; I != Residents.size(); ++I) {
      const bool Hit = T.get(Residents[I], V);
      Checks.stored(Hit, V, ResidentValues[I]);
    }
    for (size_t I = 0; I != DriftRes.size(); ++I) {
      const bool Hit = T.get(DriftRes[I], V);
      if (DriftPut[I].load())
        Checks.stored(Hit, V, DriftValues[I]);
      else
        Checks.absent(Hit);
    }
    for (size_t I = 0; I != Absent.size(); ++I)
      Checks.absent(T.get(Absent[I], V));
    for (size_t I = 0; I != Writes.size(); ++I)
      Checks.absent(T.get(Writes[I], V));
    for (const auto &[Set, Tag] : {std::pair{&Churn, uint64_t{2}},
                                   std::pair{&DriftChurn, uint64_t{3}}})
      for (size_t I = 0; I != Set->size(); ++I) {
        const bool Hit = T.get((*Set)[I], V);
        Checks.churned(Hit, V, valueTag(Tag) + I);
      }
    if (Spec.Seal)
      Checks.expect(Sealed == Residents.size());
  }

  void contention(Report &R) const {
    double Shared = 0, SharedC = 0, Unique = 0, UniqueC = 0;
    if (Expected<json::Value> Doc =
            json::parse(Table->fastLaneContentionJson()))
      if (const json::Value *T = Doc->find("totals")) {
        Shared = T->numberOr("shared_acquires", 0);
        SharedC = T->numberOr("shared_contended", 0);
        Unique = T->numberOr("unique_acquires", 0);
        UniqueC = T->numberOr("unique_contended", 0);
      }
    R.metric("container.sharded.shared_contended_share",
             SharedC / std::max(Shared, 1.0), "share",
             static_cast<uint64_t>(Shared));
    R.metric("container.sharded.unique_contended_share",
             UniqueC / std::max(Unique, 1.0), "share",
             static_cast<uint64_t>(Unique));
  }

  /// The layer ladder on the workload's own key stream, at its client
  /// count. Each rung adds one layer's public call to the rung below;
  /// a layer's self time is its rung minus the rung below.
  void layerLadder(Report &R, Tally &Checks) {
    ServingTable<uint64_t> &T = *Table;
    const AdaptiveHash &A = T.adaptive();
    const AdaptiveHash::Snapshot Snap = A.snapshot();
    const SynthesizedHash H = Snap.Fast;
    const bool FastLane = H.valid() && H.plan().Bijective;

    // Per-thread key streams, drawn like the workload's gets (in
    // format; no drift keys, which the lower rungs cannot serve).
    constexpr size_t StreamLen = 1u << 18;
    std::vector<std::vector<std::string_view>> Stream(Clients);
    for (size_t Tid = 0; Tid != Clients; ++Tid) {
      SplitMix Rng(streamSeed(O.Seed, 200 + Tid));
      Stream[Tid].reserve(StreamLen + BatchKeys);
      for (size_t I = 0; I != StreamLen + BatchKeys; ++I)
        Stream[Tid].push_back(pickGet(Rng, false).Key);
    }
    auto Keys = [&](size_t Tid, size_t Pos) {
      return Stream[Tid].data() + Pos % StreamLen;
    };

    // Standalone lower layers over the same generation and residents.
    std::unique_ptr<FlatIndexMap<uint64_t>> Flat;
    std::unique_ptr<ShardedIndexMap<uint64_t>> Sharded;
    if (FastLane) {
      Flat = std::make_unique<FlatIndexMap<uint64_t>>(H);
      Flat->reserve(Residents.size());
      std::vector<uint64_t> Images(Residents.size());
      H.hashBatch(ResidentViews.data(), Images.data(), Images.size());
      for (size_t I = 0; I != Images.size(); ++I)
        Flat->insertHashed(Images[I], ResidentValues[I]);
      Sharded = std::make_unique<ShardedIndexMap<uint64_t>>(H, Snap.Pattern,
                                                            Snap.Epoch, 16);
      Sharded->putBatch(ResidentViews.data(), ResidentValues.data(),
                        ResidentViews.size());
    }
    Mphf F;
    if (Spec.Seal) {
      const uint64_t T0 = nowNs();
      Expected<Mphf> Built = buildMphf(ResidentViews);
      R.metric("mphf.build_s", static_cast<double>(nowNs() - T0) / 1e9, "s");
      Checks.expect(static_cast<bool>(Built));
      if (Built)
        F = Built.take();
      R.metric("mphf.bits_per_key", F.valid() ? F.plan().bitsPerKey() : 0.0,
               "bits");
    } else {
      R.metric("mphf.build_s", 0, "s");
      R.metric("mphf.bits_per_key", 0, "bits");
    }

    using Rung = std::function<size_t(size_t, size_t)>;
    const Rung Hash = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I)
        S += H(K[I]);
      sink(S);
      return BatchKeys;
    };
    const Rung Stl = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I)
        S += std::hash<std::string_view>{}(K[I]);
      sink(S);
      return BatchKeys;
    };
    const Rung Route = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I)
        S += A.route(K[I]).Hash;
      sink(S);
      return BatchKeys;
    };
    const Rung FlatFind = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      const FlatIndexMap<uint64_t> &M = *Flat;
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I) {
        const uint64_t *V = M.findHashed(A.route(K[I]).Hash);
        S += V ? *V : 1;
      }
      sink(S);
      return BatchKeys;
    };
    const Rung ShardedGet = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I) {
        const AdaptiveHash::Routed Rt = A.route(K[I]);
        uint64_t V = 0;
        Sharded->getHashed(Rt.Hash, Rt.Epoch, V);
        S += V;
      }
      sink(S);
      return BatchKeys;
    };
    const Rung MphfEval = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I)
        S += H(K[I]) + F(K[I]);
      sink(S);
      return BatchKeys;
    };
    const Rung ServingGet = [&](size_t Tid, size_t Pos) {
      const std::string_view *K = Keys(Tid, Pos);
      uint64_t S = 0;
      for (size_t I = 0; I != BatchKeys; ++I) {
        uint64_t V = 0;
        T.get(K[I], V);
        S += V;
      }
      sink(S);
      return BatchKeys;
    };

    const Rung HashB = [&](size_t Tid, size_t Pos) {
      uint64_t Out[BatchKeys];
      H.hashBatch(Keys(Tid, Pos), Out, BatchKeys);
      sink(Out[0]);
      return BatchKeys;
    };
    const Rung RouteB = [&](size_t Tid, size_t Pos) {
      uint64_t Out[BatchKeys], Epoch = 0;
      uint32_t Miss[BatchKeys];
      A.routeBatch(Keys(Tid, Pos), Out, BatchKeys, Miss, Epoch);
      sink(Out[0]);
      return BatchKeys;
    };
    const Rung FlatFindB = [&](size_t Tid, size_t Pos) {
      uint64_t Img[BatchKeys], Epoch = 0;
      uint32_t Miss[BatchKeys];
      uint64_t *Vals[BatchKeys];
      A.routeBatch(Keys(Tid, Pos), Img, BatchKeys, Miss, Epoch);
      Flat->findHashedBatch(Img, Vals, BatchKeys);
      sink(Vals[0] ? *Vals[0] : 1);
      return BatchKeys;
    };
    const Rung ShardedGetB = [&](size_t Tid, size_t Pos) {
      uint64_t Img[BatchKeys], Epoch = 0, Vals[BatchKeys];
      uint32_t Miss[BatchKeys];
      uint8_t Found[BatchKeys];
      size_t Hits = 0;
      A.routeBatch(Keys(Tid, Pos), Img, BatchKeys, Miss, Epoch);
      Sharded->getBatchHashed(Img, Epoch, Vals, Found, BatchKeys, Hits);
      sink(Hits);
      return BatchKeys;
    };
    const Rung MphfEvalB = [&](size_t Tid, size_t Pos) {
      uint64_t Img[BatchKeys], Slots[BatchKeys];
      H.hashBatch(Keys(Tid, Pos), Img, BatchKeys);
      F.evalBatch(Keys(Tid, Pos), Slots, BatchKeys);
      sink(Img[0] + Slots[0]);
      return BatchKeys;
    };
    const Rung ServingGetB = [&](size_t Tid, size_t Pos) {
      uint64_t Vals[BatchKeys];
      uint8_t Found[BatchKeys];
      sink(T.getBatch(Keys(Tid, Pos), Vals, Found, BatchKeys));
      return BatchKeys;
    };

    // Read rungs. The chain is the stack a served get descends:
    // fast-lane formats hash -> route -> flat -> sharded -> serving;
    // the sealed format hash -> mphf -> serving (its static lane does
    // not route). route and stl are measured on every workload.
    std::vector<Rung> Single = {Hash, Stl, Route, ServingGet};
    std::vector<Rung> Batch = {HashB, RouteB, ServingGetB};
    if (FastLane) {
      Single.insert(Single.end(), {FlatFind, ShardedGet});
      Batch.insert(Batch.end(), {FlatFindB, ShardedGetB});
    }
    if (F.valid()) {
      Single.push_back(MphfEval);
      Batch.push_back(MphfEvalB);
    }
    const std::vector<double> S = ladder(Clients, Single);
    const std::vector<double> B = ladder(Clients, Batch);
    const double LHash = S[0], LStl = S[1], LRoute = S[2], LServe = S[3];
    const double LFlat = FastLane ? S[4] : 0, LShard = FastLane ? S[5] : 0;
    const double LMphf = F.valid() ? S.back() : 0;
    const double BHash = B[0], BRoute = B[1], BServe = B[2];
    const double BFlat = FastLane ? B[3] : 0, BShard = FastLane ? B[4] : 0;
    const double BMphf = F.valid() ? B.back() : 0;

    // Write rungs: count-bounded (each put journals its key in the
    // sharded layer), over the ladder's own fresh keys, put then erase.
    // Pass 0 is a warm-up: the first puts grow the shards, a one-off
    // rehash that would otherwise land in whichever rung ran first.
    std::vector<double> WRoute, WShardPut, WShardErase, WServePut, WServeErase;
    const size_t Segment = Writes.size() / Clients;
    for (int Pass = 0; Pass != 6; ++Pass) {
      auto Timed = [&](auto &&Op) {
        std::vector<double> Ns(Clients);
        std::vector<std::thread> Pool;
        for (size_t Tid = 0; Tid != Clients; ++Tid)
          Pool.emplace_back([&, Tid] {
            const uint64_t T0 = nowNs();
            for (size_t I = Tid * Segment; I != (Tid + 1) * Segment; ++I)
              Op(Writes[I], valueTag(4) + I);
            Ns[Tid] = static_cast<double>(nowNs() - T0) / Segment;
          });
        for (std::thread &Th : Pool)
          Th.join();
        double Sum = 0;
        for (double V : Ns)
          Sum += V;
        return Sum / static_cast<double>(Clients);
      };
      WRoute.push_back(Timed([&](std::string_view K, uint64_t) {
        sink(A.route(K).Hash);
      }));
      if (FastLane) {
        WShardPut.push_back(Timed([&](std::string_view K, uint64_t V) {
          const AdaptiveHash::Routed Rt = A.route(K);
          bool Inserted = false;
          Sharded->putHashed(K, Rt.Hash, Rt.Epoch, V, Inserted);
        }));
        WShardErase.push_back(Timed([&](std::string_view K, uint64_t) {
          const AdaptiveHash::Routed Rt = A.route(K);
          bool Erased = false;
          Sharded->eraseHashed(K, Rt.Hash, Rt.Epoch, Erased);
        }));
      }
      WServePut.push_back(
          Timed([&](std::string_view K, uint64_t V) { T.put(K, V); }));
      WServeErase.push_back(
          Timed([&](std::string_view K, uint64_t) { T.erase(K); }));
    }
    for (auto *V :
         {&WRoute, &WShardPut, &WShardErase, &WServePut, &WServeErase})
      if (!V->empty())
        V->erase(V->begin());
    const double LWRoute = median(WRoute);
    const double LSPut = FastLane ? median(WShardPut) : 0;
    const double LSErase = FastLane ? median(WShardErase) : 0;
    const double LVPut = median(WServePut), LVErase = median(WServeErase);

    // Cumulative rungs.
    R.metric("ladder.hash_ns", LHash, "ns");
    R.metric("ladder.route_ns", LRoute, "ns");
    R.metric("ladder.flat_ns", LFlat, "ns");
    R.metric("ladder.sharded_ns", LShard, "ns");
    R.metric("ladder.mphf_ns", LMphf, "ns");
    R.metric("ladder.serving_ns", LServe, "ns");
    R.metric("ladder.batch.hash_ns_per_key", BHash, "ns");
    R.metric("ladder.batch.route_ns_per_key", BRoute, "ns");
    R.metric("ladder.batch.flat_ns_per_key", BFlat, "ns");
    R.metric("ladder.batch.sharded_ns_per_key", BShard, "ns");
    R.metric("ladder.batch.mphf_ns_per_key", BMphf, "ns");
    R.metric("ladder.batch.serving_ns_per_key", BServe, "ns");
    R.metric("ladder.sharded_put_ns", LSPut, "ns");
    R.metric("ladder.serving_put_ns", LVPut, "ns");
    R.metric("ladder.serving_erase_ns", LVErase, "ns");

    std::vector<double> Chain = {LHash}, BChain = {BHash};
    if (FastLane) {
      Chain.insert(Chain.end(), {LRoute, LFlat, LShard});
      BChain.insert(BChain.end(), {BRoute, BFlat, BShard});
    } else if (F.valid()) {
      Chain.push_back(LMphf);
      BChain.push_back(BMphf);
    } else {
      Chain.push_back(LRoute);
      BChain.push_back(BRoute);
    }
    Chain.push_back(LServe);
    BChain.push_back(BServe);
    R.metric("ladder.monotone", nonDecreasing(Chain) && nonDecreasing(BChain),
             "bool");

    // Self times: rung minus the rung below in the chain.
    const double BelowServe = FastLane ? LShard : (F.valid() ? LMphf : LRoute);
    const double BelowServeB = FastLane ? BShard : (F.valid() ? BMphf : BRoute);
    R.metric("core.executor.single_ns_per_key", LHash, "ns");
    R.metric("core.executor.batch_ns_per_key", BHash, "ns");
    R.metric("hashes.stl_ns_per_key", LStl, "ns");
    R.metric("runtime.adaptive.route_ns_per_key", LRoute - LHash, "ns");
    R.metric("runtime.adaptive.route_batch_ns_per_key", BRoute - BHash, "ns");
    R.metric("container.flat.find_hashed_ns_per_key",
             FastLane ? LFlat - LRoute : 0, "ns");
    R.metric("container.flat.max_probe_groups",
             Flat ? static_cast<double>(Flat->maxProbeLength()) : 0, "groups");
    R.metric("container.sharded.get_hashed_ns_per_key",
             FastLane ? LShard - LFlat : 0, "ns");
    R.metric("container.sharded.get_batch_hashed_ns_per_key",
             FastLane ? BShard - BFlat : 0, "ns");
    R.metric("container.sharded.put_ns", FastLane ? LSPut - LWRoute : 0, "ns");
    R.metric("runtime.serving.get_ns", LServe - BelowServe, "ns");
    R.metric("runtime.serving.get_batch_ns_per_key", BServe - BelowServeB,
             "ns");
    R.metric("runtime.serving.put_ns", LVPut - (FastLane ? LSPut : LWRoute),
             "ns");
    R.metric("runtime.serving.erase_ns",
             LVErase - (FastLane ? LSErase : LWRoute), "ns");
    R.metric("mphf.eval_ns_per_key", F.valid() ? LMphf - LHash : 0, "ns");
    R.metric("mphf.eval_batch_ns_per_key", F.valid() ? BMphf - BHash : 0,
             "ns");
  }

  const Options &O;
  ServeSpec Spec;
  const KeyFormat &Format;
  size_t Clients;

  KeySet Residents, DriftRes, Churn, DriftChurn, Absent, Writes;
  std::vector<std::string_view> ResidentViews;
  std::vector<uint64_t> ResidentValues, DriftValues;
  /// DriftPut[I]: a put of DriftRes[I] has returned.
  std::unique_ptr<std::atomic<uint8_t>[]> DriftPut;
  std::unique_ptr<ZipfChooser> Zipf, DriftZipf;

  std::unique_ptr<ServingTable<uint64_t>> Table;
  size_t Sealed = 0;

  // Maintenance-thread measurements; read after it joins.
  double PumpNs = 0, MaintainNs = 0, MigrateNs = 0;
  uint64_t PumpCalls = 0, MaintainCalls = 0;
  size_t SpillPeak = 0;
};

//===----------------------------------------------------------------------===//
// paper_hash
//===----------------------------------------------------------------------===//

/// The paper's fig13 experiment as a closed loop on one thread: for all
/// eight formats, std::unordered_map keyed through the synthesized Pext
/// hash, driven by the Inter60_20 affectation mix (60% insert, 20%
/// search, 20% erase) over Normal-distributed keys.
class PaperBench {
public:
  explicit PaperBench(const Options &O) : O(O) {}

  int run() {
    const auto &Formats = paperFormats();
    for (size_t F = 0; F != Formats.size(); ++F) {
      Keys.emplace_back();
      const std::vector<uint64_t> V =
          distinctValues(Formats[F], Spread, Distribution::Normal,
                         streamSeed(O.Seed, 10 + F));
      for (uint64_t X : V)
        Keys.back().push_back(encodeKey(Formats[F], X, nullptr));
    }
    std::vector<std::string_view> All;
    for (const auto &K : Keys)
      All.insert(All.end(), K.begin(), K.end());
    if (std::string Dup = findDuplicate(All); !Dup.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", Dup.c_str());
      return 3;
    }
    Tracer Spans;
    SpanLog *MainLog = O.Trace ? Spans.log(0) : nullptr;

    std::vector<double> SetupS;
    double BytesPerKey = 0;
    for (int Rep = 0; moreSetupReps(SetupS); ++Rep) {
      Maps.clear();
      Hashes.clear();
      const size_t RssBefore = Rep == 0 ? trimmedResidentBytes() : 0;
      const uint64_t T0 = nowNs();
      const size_t Stored = setup(MainLog);
      SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
      if (Rep == 0)
        BytesPerKey = (static_cast<double>(residentBytes()) -
                       static_cast<double>(RssBefore)) /
                      static_cast<double>(Stored);
    }

    std::vector<Client> States;
    States.emplace_back(streamSeed(O.Seed, 100));
    if (O.Trace)
      States.back().Log = Spans.log(1);
    PhaseClock Clock;
    std::thread Worker([&] { clientLoop(States[0], Clock); });
    Clock.run(O.Seconds, false, O.Trace);
    Worker.join();

    Tally Checks = States[0].Checks;
    for (size_t F = 0; F != Maps.size(); ++F)
      for (size_t I = 0; I != Spread; ++I) {
        const auto It = Maps[F]->find(Keys[F][I]);
        const bool Found = It != Maps[F]->end();
        if (Present[F][I])
          Checks.stored(Found, Found ? It->second : 0, I);
        else
          Checks.absent(Found);
      }

    Report R;
    reportEndToEnd(R, States, Clock, SetupS, BytesPerKey, O.Trace, false);
    std::string Extra;
    if (O.Trace) {
      std::vector<const KeyFormat *> Ptrs;
      for (const KeyFormat &F : Formats)
        Ptrs.push_back(&F);
      measureSynthesis(Ptrs, R);
      paperLadder(R);
      R.metric("bench.clock_read_ns", clockReadNs(), "ns");
      if (!O.SpansPath.empty() && !Spans.writeChrome(O.SpansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     O.SpansPath.c_str());
      Extra = spanSummaryJson(Spans, O.SpansPath);
      R.fillMissing(PerLayerMetrics);
    }
    if (!R.write(O, 1, Checks, Extra)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   O.ReportPath.c_str());
      return 3;
    }
    return 0;
  }

private:
  using Map = std::unordered_map<std::string, uint64_t, SynthesizedHash>;

  /// Synthesizes, attaches and loads every format's map with the
  /// steady-state share (3/4, where 60% inserts balance 20% erases) of
  /// its key spread. Returns the number of stored keys.
  size_t setup(SpanLog *Log) {
    ScopedSpan Root(Log, "setup");
    const auto &Formats = paperFormats();
    Present.assign(Formats.size(), std::vector<uint8_t>(Spread, 0));
    size_t Stored = 0;
    for (size_t F = 0; F != Formats.size(); ++F) {
      KeyPattern P;
      {
        ScopedSpan S(Log, "core.synthesize.parse_regex", Root.index());
        P = patternOf(Formats[F]);
      }
      Expected<HashPlan> Plan = [&] {
        ScopedSpan S(Log, "core.synthesize.synthesize", Root.index());
        return synthesize(P, HashFamily::Pext);
      }();
      if (!Plan) {
        std::fprintf(stderr, "perfbench: synthesis failed\n");
        std::exit(3);
      }
      SynthesizedHash H;
      {
        ScopedSpan S(Log, "core.jit.attach", Root.index());
        H = SynthesizedHash(Plan.take());
      }
      ScopedSpan S(Log, "hashes.umap_load", Root.index());
      Hashes.push_back(H);
      Maps.push_back(std::make_unique<Map>(Spread, H));
      for (size_t I = 0; I != Spread * 3 / 4; ++I) {
        Maps.back()->emplace(Keys[F][I], I);
        Present[F][I] = 1;
        ++Stored;
      }
    }
    return Stored;
  }

  void clientLoop(Client &C, const PhaseClock &Clock) {
    size_t F = 0;
    while (Clock.Phase.load(std::memory_order_relaxed) != 2) {
      F = (F + 1) % Maps.size();
      Map &M = *Maps[F];
      const std::vector<std::string> &K = Keys[F];
      std::vector<uint8_t> &Pres = Present[F];
      for (size_t Op = 0; Op != OpsPerVisit; ++Op) {
        const bool Traced = Clock.TraceOn.load(std::memory_order_relaxed);
        ++C.Tick;
        WindowStats *W = C.window(Clock);
      const bool Timed = W && C.Tick % TimedEvery == 0;
        SpanLog *Log = Traced && C.Tick % SpannedEvery == 1 ? C.Log : nullptr;
        const uint64_t OpId = (uint64_t{1} << 48) | C.Tick;
        const uint64_t Roll = C.Rng.below(100);
        if (Roll < 60) {
          const size_t I = C.Rng.below(Spread);
          ScopedSpan Op(Log, "client.put", -1, OpId);
          const uint64_t T0 = Timed ? nowNs() : 0;
          bool Inserted;
          {
            ScopedSpan Call(Log, "hashes.umap_emplace", Op.index(), OpId);
            Inserted = M.emplace(K[I], I).second;
          }
          if (Timed)
            W->Put.add(nowNs() - T0);
          C.Checks.expect(Inserted == (Pres[I] == 0));
          Pres[I] = 1;
          if (W)
            W->Served += 1;
        } else if (Roll < 80 && C.Rng.below(16) == 0) {
          size_t Idx[BatchKeys];
          Map::const_iterator Its[BatchKeys];
          for (size_t J = 0; J != BatchKeys; ++J)
            Idx[J] = C.Rng.below(Spread);
          ScopedSpan Op(Log, "client.get_batch", -1, OpId);
          const uint64_t T0 = Timed ? nowNs() : 0;
          {
            ScopedSpan Call(Log, "hashes.umap_find_batch", Op.index(), OpId);
            for (size_t J = 0; J != BatchKeys; ++J)
              Its[J] = M.find(K[Idx[J]]);
          }
          if (Timed)
            W->Batch.add(nowNs() - T0);
          for (size_t J = 0; J != BatchKeys; ++J)
            check(C, Its[J] != M.end(), Its[J] != M.end() ? Its[J]->second : 0,
                  Idx[J], Pres);
          if (W)
            W->Served += BatchKeys;
        } else if (Roll < 80) {
          const size_t I = C.Rng.below(Spread);
          ScopedSpan Op(Log, "client.get", -1, OpId);
          const uint64_t T0 = Timed ? nowNs() : 0;
          Map::const_iterator It;
          {
            ScopedSpan Call(Log, "hashes.umap_find", Op.index(), OpId);
            It = M.find(K[I]);
          }
          if (Timed)
            W->Get.add(nowNs() - T0);
          check(C, It != M.end(), It != M.end() ? It->second : 0, I, Pres);
          if (W)
            W->Served += 1;
        } else {
          const size_t I = C.Rng.below(Spread);
          ScopedSpan Op(Log, "client.erase", -1, OpId);
          const uint64_t T0 = Timed ? nowNs() : 0;
          size_t Erased;
          {
            ScopedSpan Call(Log, "hashes.umap_erase", Op.index(), OpId);
            Erased = M.erase(K[I]);
          }
          if (Timed)
            W->Put.add(nowNs() - T0);
          C.Checks.expect(Erased == Pres[I]);
          Pres[I] = 0;
          if (W)
            W->Served += 1;
        }
      }
    }
  }

  static void check(Client &C, bool Found, uint64_t Got, size_t I,
                    const std::vector<uint8_t> &Pres) {
    if (Pres[I])
      C.Checks.stored(Found, Got, I);
    else
      C.Checks.absent(Found);
  }

  /// Single-thread ladder over each format's spread in the workload's
  /// index order: hash -> unordered_map find (hash + probe + compare).
  void paperLadder(Report &R) {
    constexpr size_t StreamLen = 1u << 14;
    std::vector<std::vector<const std::string *>> Stream(Maps.size());
    std::vector<std::vector<std::string_view>> Views(Maps.size());
    SplitMix Rng(streamSeed(O.Seed, 300));
    for (size_t F = 0; F != Maps.size(); ++F)
      for (size_t I = 0; I != StreamLen + BatchKeys; ++I) {
        Stream[F].push_back(&Keys[F][Rng.below(Spread)]);
        Views[F].push_back(*Stream[F].back());
      }
    // A rung walks the formats in blocks, as the replay does.
    using Body = std::function<void(size_t, size_t)>;
    auto Rung = [&](Body B) {
      return std::function<size_t(size_t, size_t)>(
          [this, B](size_t, size_t Pos) {
            B((Pos / StreamLen) % Maps.size(), Pos % StreamLen);
            return BatchKeys;
          });
    };
    const std::vector<std::function<size_t(size_t, size_t)>> Rungs = {
        Rung([&](size_t F, size_t Pos) {
          const SynthesizedHash &H = Hashes[F];
          const std::string_view *K = Views[F].data() + Pos;
          uint64_t S = 0;
          for (size_t I = 0; I != BatchKeys; ++I)
            S += H(K[I]);
          sink(S);
        }),
        Rung([&](size_t F, size_t Pos) {
          const std::string_view *K = Views[F].data() + Pos;
          uint64_t S = 0;
          for (size_t I = 0; I != BatchKeys; ++I)
            S += std::hash<std::string_view>{}(K[I]);
          sink(S);
        }),
        Rung([&](size_t F, size_t Pos) {
          uint64_t Out[BatchKeys];
          Hashes[F].hashBatch(Views[F].data() + Pos, Out, BatchKeys);
          sink(Out[0]);
        }),
        Rung([&](size_t F, size_t Pos) {
          const Map &M = *Maps[F];
          const std::string *const *K = Stream[F].data() + Pos;
          uint64_t S = 0;
          for (size_t I = 0; I != BatchKeys; ++I)
            S += M.count(*K[I]);
          sink(S);
        }),
    };
    const std::vector<double> L = ladder(1, Rungs);
    R.metric("ladder.hash_ns", L[0], "ns");
    R.metric("ladder.batch.hash_ns_per_key", L[2], "ns");
    R.metric("ladder.umap_find_ns", L[3], "ns");
    R.metric("ladder.monotone", L[3] >= L[0], "bool");
    R.metric("core.executor.single_ns_per_key", L[0], "ns");
    R.metric("core.executor.batch_ns_per_key", L[2], "ns");
    R.metric("hashes.stl_ns_per_key", L[1], "ns");
  }

  static constexpr size_t Spread = 1u << 13; ///< Distinct keys per format.
  /// Consecutive ops on one format before moving to the next: long
  /// enough that, as in the paper's per-format experiments, one map's
  /// working set is what the cache holds.
  static constexpr size_t OpsPerVisit = 1u << 16;

  const Options &O;
  std::vector<std::vector<std::string>> Keys;
  std::vector<std::unique_ptr<Map>> Maps;
  std::vector<SynthesizedHash> Hashes; ///< Maps[F]'s hasher.
  std::vector<std::vector<uint8_t>> Present;
};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --report FILE [--spans FILE]\n");
    return 2;
  }
  if (O.Workload == "paper_hash")
    return PaperBench(O).run();
  if (O.Workload == "serve_drift" || O.Workload == "serve_sealed")
    return ServeBench(O, serveSpec(O.Workload)).run();
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               O.Workload.c_str());
  return 2;
}
