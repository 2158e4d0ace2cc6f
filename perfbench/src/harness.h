//===- perfbench/src/harness.h - Measurement and checking primitives ------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload-independent half of the benchmark: seeded key
/// generation, the correctness oracle, latency sampling and percentile
/// reporting, the client-thread cap, and the host/build fingerprint.
/// Everything here is exercised by selftest.cpp; nothing here calls
/// into the library under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Time
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Mean cost of one nowNs() call, in ns. Every sampled latency includes
/// about one such read, so the report carries it next to them.
inline double clockReadNs() {
  constexpr size_t Reads = 1u << 20;
  uint64_t Sink = 0;
  const uint64_t Start = nowNs();
  for (size_t I = 0; I != Reads; ++I)
    Sink += nowNs();
  const uint64_t End = nowNs();
  if (Sink == 1) // Keeps the loop from being folded away.
    std::puts("");
  return static_cast<double>(End - Start) / Reads;
}

//===----------------------------------------------------------------------===//
// Random numbers
//===----------------------------------------------------------------------===//

/// SplitMix64: the per-thread operation generator. Seeded from the
/// workload seed, so one seed replays one input stream.
struct SplitMix {
  uint64_t State;
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * N) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Derives independent stream seeds from the workload seed.
inline uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  SplitMix M(Seed ^ (Stream * 0xD1B54A32D192ED03ull));
  return M.next();
}

/// Zipf(Theta) over ranks [0, N) by inverse CDF. Rank R maps to key
/// Perm[R], a seeded permutation, so which keys are hot varies with the
/// seed while the skew does not.
class ZipfChooser {
public:
  ZipfChooser(size_t N, double Theta, uint64_t Seed) : Cdf(N), Perm(N) {
    double Sum = 0;
    for (size_t R = 0; R != N; ++R) {
      Sum += 1.0 / std::pow(static_cast<double>(R + 1), Theta);
      Cdf[R] = Sum;
    }
    for (double &C : Cdf)
      C /= Sum;
    for (size_t I = 0; I != N; ++I)
      Perm[I] = static_cast<uint32_t>(I);
    SplitMix M(Seed);
    for (size_t I = N; I > 1; --I)
      std::swap(Perm[I - 1], Perm[M.below(I)]);
  }
  size_t operator()(SplitMix &Rng) const {
    const double U = Rng.unit();
    size_t R = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return Perm[std::min(R, Perm.size() - 1)];
  }

private:
  std::vector<double> Cdf;
  std::vector<uint32_t> Perm;
};

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

/// A fixed-length key format: the regex the library synthesizes from,
/// and a shape the benchmark generates members from. In the shape '#'
/// is a digit, '%' a lower-case hex digit, '*' a mixed-case hex digit,
/// '@' a [a-z0-9] character; anything else is a literal.
struct KeyFormat {
  const char *Name;
  const char *Regex;
  std::string Shape;
};

inline std::string_view shapeAlphabet(char C) {
  switch (C) {
  case '#':
    return "0123456789";
  case '%':
    return "0123456789abcdef";
  case '*':
    return "0123456789ABCDEFabcdef";
  case '@':
    return "0123456789abcdefghijklmnopqrstuvwxyz";
  default:
    return {};
  }
}

/// The paper's eight formats (Section 4), as regexes plus shapes.
inline const std::vector<KeyFormat> &paperFormats() {
  static const std::vector<KeyFormat> Formats = {
      {"SSN", R"(\d{3}-\d{2}-\d{4})", "###-##-####"},
      {"CPF", R"(\d{3}\.\d{3}\.\d{3}-\d{2})", "###.###.###-##"},
      {"MAC", R"(([0-9a-fA-F]{2}-){5}[0-9a-fA-F]{2})",
       "**-**-**-**-**-**"},
      {"IPv4", R"((([0-9]{3})\.){3}[0-9]{3})", "###.###.###.###"},
      {"IPv6", R"(([0-9a-f]{4}:){7}[0-9a-f]{4})",
       "%%%%:%%%%:%%%%:%%%%:%%%%:%%%%:%%%%:%%%%"},
      {"INTS", R"([0-9]{100})", std::string(100, '#')},
      {"URL1", R"(https://example\.com/go/[a-z0-9]{20}\.html)",
       "https://example.com/go/" + std::string(20, '@') + ".html"},
      {"URL2", R"(https://www\.example\.com/en/articles/[a-z0-9]{20}\.html)",
       "https://www.example.com/en/articles/" + std::string(20, '@') +
           ".html"},
  };
  return Formats;
}

inline const KeyFormat &formatNamed(std::string_view Name) {
  for (const KeyFormat &F : paperFormats())
    if (Name == F.Name)
      return F;
  std::fprintf(stderr, "perfbench: unknown format %.*s\n",
               static_cast<int>(Name.size()), Name.data());
  std::abort();
}

/// Fixed-length keys stored back to back; operator[] views into the
/// arena, which outlives every view the benchmark hands out.
class KeySet {
public:
  explicit KeySet(size_t Len = 0) : Len(Len) {}
  size_t size() const { return Len == 0 ? 0 : Bytes.size() / Len; }
  size_t keyLength() const { return Len; }
  std::string_view operator[](size_t I) const {
    return {Bytes.data() + I * Len, Len};
  }
  void push(std::string_view Key) {
    Bytes.insert(Bytes.end(), Key.begin(), Key.end());
  }
  void reserve(size_t N) { Bytes.reserve(N * Len); }
  std::vector<std::string_view> views() const {
    std::vector<std::string_view> V(size());
    for (size_t I = 0; I != V.size(); ++I)
      V[I] = (*this)[I];
    return V;
  }

private:
  size_t Len;
  std::vector<char> Bytes;
};

enum class Distribution { Uniform, Normal };

/// Number of distinct values the generator draws from: the product of
/// the variable positions' alphabet sizes, capped at 2^62 (the paper's
/// generator caps the same way).
inline uint64_t valueSpace(const KeyFormat &F) {
  constexpr uint64_t Cap = uint64_t{1} << 62;
  uint64_t Space = 1;
  for (char C : F.Shape) {
    const uint64_t Radix = shapeAlphabet(C).size();
    if (Radix == 0)
      continue;
    if (Space > Cap / Radix)
      return Cap;
    Space *= Radix;
  }
  return Space;
}

/// The key whose mixed-radix value is \p V (least significant digit at
/// the last variable position). Positions past the 2^62 cap take a
/// character from \p Pad, or the alphabet's first one when Pad is null;
/// distinct values below valueSpace() give distinct keys either way.
inline std::string encodeKey(const KeyFormat &F, uint64_t V, SplitMix *Pad) {
  std::string Key = F.Shape;
  unsigned __int128 Covered = 1;
  constexpr uint64_t Cap = uint64_t{1} << 62;
  for (size_t I = Key.size(); I-- > 0;) {
    const std::string_view A = shapeAlphabet(F.Shape[I]);
    if (A.empty())
      continue;
    if (Covered < Cap) {
      Key[I] = A[V % A.size()];
      V /= A.size();
      Covered *= A.size();
    } else {
      Key[I] = Pad ? A[Pad->below(A.size())] : A[0];
    }
  }
  return Key;
}

/// \p N distinct values below valueSpace(F) in seeded random order.
/// Uniform draws cover the space evenly; Normal draws follow the
/// paper's N(space/2, space/8), clamped to the space.
inline std::vector<uint64_t> distinctValues(const KeyFormat &F, size_t N,
                                            Distribution D, uint64_t Seed) {
  const uint64_t Space = valueSpace(F);
  SplitMix Rng(Seed);
  std::mt19937_64 Normal(Seed);
  std::normal_distribution<double> Dist(static_cast<double>(Space) / 2.0,
                                        static_cast<double>(Space) / 8.0);
  std::vector<uint64_t> Values;
  Values.reserve(N + N / 8);
  while (Values.size() < N) {
    const size_t Want = N - Values.size() + N / 16 + 16;
    for (size_t I = 0; I != Want; ++I) {
      if (D == Distribution::Uniform) {
        Values.push_back(Rng.below(Space));
      } else {
        // Clamp as integers: Space - 1 may not be representable as a
        // double, and a draw rounded up to Space would wrap to 0.
        const double X = std::max(Dist(Normal), 0.0);
        Values.push_back(X >= static_cast<double>(Space)
                             ? Space - 1
                             : std::min(static_cast<uint64_t>(X), Space - 1));
      }
    }
    std::sort(Values.begin(), Values.end());
    Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
  }
  for (size_t I = Values.size(); I > 1; --I)
    std::swap(Values[I - 1], Values[Rng.below(I)]);
  Values.resize(N);
  return Values;
}

/// Out-of-format keys for drift traffic: each source key with \p Byte
/// written at \p Pos, deduplicated — keys that differ only at Pos
/// collapse to one drifted key, and the oracle needs one expected value
/// per distinct key. \p Taken holds already-used drifted keys (sorted);
/// they are excluded too.
inline KeySet driftKeys(const KeySet &Source, size_t Pos, char Byte,
                        const std::vector<std::string> &Taken = {}) {
  std::vector<std::string> Drifted;
  Drifted.reserve(Source.size());
  for (size_t I = 0; I != Source.size(); ++I) {
    std::string K(Source[I]);
    K[Pos] = Byte;
    Drifted.push_back(std::move(K));
  }
  // Keep first occurrences in source order, so the drift set follows
  // the seeded order of its sources.
  std::vector<size_t> Order(Drifted.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Drifted[A] < Drifted[B];
  });
  std::vector<uint8_t> Keep(Drifted.size(), 0);
  for (size_t I = 0; I != Order.size(); ++I) {
    const std::string &K = Drifted[Order[I]];
    if (I != 0 && K == Drifted[Order[I - 1]])
      continue;
    if (std::binary_search(Taken.begin(), Taken.end(), K))
      continue;
    Keep[Order[I]] = 1;
  }
  KeySet Out(Source.keyLength());
  for (size_t I = 0; I != Drifted.size(); ++I)
    if (Keep[I])
      Out.push(Drifted[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// Checks on returned values, counted per client thread and summed.
/// Every stored key carries a unique expected value, so a lookup that
/// lands on another key's entry reads a wrong value and is caught.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// A key stored for the whole run: must be found with \p Want.
  void stored(bool Found, uint64_t Got, uint64_t Want) {
    ++Attempted;
    Failed += (Found && Got == Want) ? 0 : 1;
  }
  /// A key never stored: must not be found.
  void absent(bool Found) {
    ++Attempted;
    Failed += Found ? 1 : 0;
  }
  /// A key under concurrent put/erase: if found, must carry \p Want.
  void churned(bool Found, uint64_t Got, uint64_t Want) {
    ++Attempted;
    Failed += (!Found || Got == Want) ? 0 : 1;
  }
  /// Any other checked outcome.
  void expect(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  void add(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
};

/// Empty when every key in \p Keys is distinct; otherwise names the
/// first duplicate. The oracle's precondition: one expected value per
/// key.
inline std::string findDuplicate(std::vector<std::string_view> Keys) {
  std::sort(Keys.begin(), Keys.end());
  for (size_t I = 1; I < Keys.size(); ++I)
    if (Keys[I] == Keys[I - 1])
      return "duplicate key '" + std::string(Keys[I]) + "'";
  return {};
}

//===----------------------------------------------------------------------===//
// Latency samples and percentiles
//===----------------------------------------------------------------------===//

/// A uniform reservoir of latency samples: every timed operation has an
/// equal chance to be kept however long the run, so the drift onset in
/// the middle of a run is represented in proportion.
class LatencySampler {
public:
  explicit LatencySampler(size_t Capacity = 1u << 18, uint64_t Seed = 1)
      : Capacity(Capacity), Rng(Seed) {
    Samples.reserve(Capacity);
  }
  void add(uint64_t Ns) {
    const uint32_t V =
        static_cast<uint32_t>(std::min<uint64_t>(Ns, UINT32_MAX));
    ++Seen;
    if (Samples.size() < Capacity) {
      Samples.push_back(V);
      return;
    }
    const uint64_t Slot = Rng.below(Seen);
    if (Slot < Capacity)
      Samples[Slot] = V;
  }
  const std::vector<uint32_t> &samples() const { return Samples; }
  uint64_t seen() const { return Seen; }

private:
  size_t Capacity;
  uint64_t Seen = 0;
  SplitMix Rng;
  std::vector<uint32_t> Samples;
};

/// One reported percentile. Valid only when at least MinBeyond samples
/// lie strictly beyond it — a p99 over 200 samples rests on two
/// values, which is noise, so it is dropped instead of reported.
struct Percentile {
  bool Valid = false;
  double Value = 0;
  size_t Samples = 0;
};

inline Percentile percentile(const std::vector<uint32_t> &Sorted, double Q,
                             size_t MinBeyond = 10) {
  Percentile P;
  P.Samples = Sorted.size();
  if (Sorted.empty())
    return P;
  // Nearest rank: the smallest sample with at least Q of all at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  const size_t Beyond = Sorted.size() - Rank;
  if (Beyond < MinBeyond)
    return P;
  P.Valid = true;
  P.Value = Sorted[Rank - 1];
  return P;
}

/// Merges per-thread reservoirs into one sorted sample in which every
/// timed operation had the same chance to appear: each part is cut to
/// the lowest keep rate among the parts by a seeded random subset, so a
/// thread that timed more operations is not under-represented.
inline std::vector<uint32_t>
mergeSamples(const std::vector<const LatencySampler *> &Parts) {
  double Rate = 1.0;
  for (const LatencySampler *S : Parts)
    if (S->seen() != 0)
      Rate = std::min(Rate, static_cast<double>(S->samples().size()) /
                                static_cast<double>(S->seen()));
  std::vector<uint32_t> All;
  SplitMix Rng(0x5A3B1E);
  for (const LatencySampler *S : Parts) {
    std::vector<uint32_t> V = S->samples();
    const size_t Keep = std::min(
        V.size(), static_cast<size_t>(std::llround(Rate * S->seen())));
    for (size_t I = 0; I != Keep; ++I)
      std::swap(V[I], V[I + Rng.below(V.size() - I)]);
    All.insert(All.end(), V.begin(), V.begin() + Keep);
  }
  std::sort(All.begin(), All.end());
  return All;
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// The mean of \p V without its worst tenth: the highest values, or the
/// lowest ones when \p HigherIsBetter.
inline double trimmedMean(std::vector<double> V, bool HigherIsBetter) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (HigherIsBetter)
    std::reverse(V.begin(), V.end());
  const size_t Keep = V.size() - V.size() / 10;
  double Sum = 0;
  for (size_t I = 0; I != Keep; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Keep);
}

//===----------------------------------------------------------------------===//
// Threads and host
//===----------------------------------------------------------------------===//

/// CPUs this process may run on.
inline size_t hostCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Client threads for a serving workload that also runs one maintenance
/// thread: never more than nproc - 1 clients, so clients plus
/// maintenance never oversubscribe the host (one client on a 1-CPU
/// host, where nothing can avoid it).
inline size_t clientThreads(size_t Wanted, size_t Cpus) {
  if (Cpus <= 1)
    return 1;
  return std::clamp<size_t>(Wanted, 1, Cpus - 1);
}

/// Resident set size in bytes (from /proc/self/statm).
inline size_t residentBytes() {
  std::ifstream In("/proc/self/statm");
  size_t Pages = 0, Resident = 0;
  In >> Pages >> Resident;
  return Resident * 4096;
}

/// Resident set size after returning free heap pages to the system, so
/// growth measured from here is memory the set-up really holds rather
/// than what it happened to reuse.
inline size_t trimmedResidentBytes() {
  malloc_trim(0);
  return residentBytes();
}

/// Machine-wide CPU time from the first line of /proc/stat, in clock
/// ticks: Busy is every tick a CPU wanted to run (user, nice, system,
/// irq, softirq, steal), Steal the ticks the hypervisor kept it off.
struct CpuTicks {
  uint64_t Busy = 0;
  uint64_t Steal = 0;
};

inline CpuTicks hostCpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t User = 0, Nice = 0, System = 0, Idle = 0, IoWait = 0, Irq = 0,
           SoftIrq = 0, Steal = 0;
  In >> Cpu >> User >> Nice >> System >> Idle >> IoWait >> Irq >> SoftIrq >>
      Steal;
  return {User + Nice + System + Irq + SoftIrq + Steal, Steal};
}

inline std::string readFirstLine(const char *Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

inline std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
