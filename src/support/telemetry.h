//===- support/telemetry.h - Zero-overhead-when-off metrics ----*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate: atomic counters, fixed-bucket log2
/// histograms, and RAII scoped timers, all reachable by name through a
/// process-wide registry that serializes to JSON. Instrumentation sites
/// use the SEPE_COUNT / SEPE_COUNT_N / SEPE_RECORD / SEPE_SPAN macros.
///
/// One gate, at run time: recording is off unless setEnabled(true) is
/// called or SEPE_TELEMETRY_ENABLED is set in the environment. Every
/// macro tests enabled() first, so a disabled site is one relaxed load
/// and a predictable branch: it evaluates no argument, touches no
/// function-local static, registers nothing and allocates nothing. An
/// enabled site caches its registry lookup in a function-local static,
/// so its steady-state cost is one relaxed atomic op.
///
/// Sites run once per call, per batch or per lifecycle event, never
/// once per key or per probe: a synthesized hash costs a few ns per
/// key, so only per-call granularity keeps the disabled cost out of
/// the noise. Batch paths count with SEPE_COUNT_N once per call;
/// per-key distributions (FlatIndexMap probe lengths) are computed on
/// demand by walking the structure.
///
/// Registered metrics live for the process lifetime; resetAll() zeroes
/// values but never unregisters, so cached references stay valid.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_TELEMETRY_H
#define SEPE_SUPPORT_TELEMETRY_H

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>

namespace sepe::telemetry {

/// Serializes every registered metric to one JSON object (see
/// DESIGN.md "Observability" for the schema).
std::string toJson();

/// Zeroes every registered counter, histogram, and span in place.
void resetAll();

/// Serializes every registered metric in Prometheus text-exposition
/// format (counters as `counter`, histograms and spans as `summary`
/// with p50/p90/p99/p99.9 quantile lines estimated from the log2
/// buckets; span names get an `_ns` unit suffix). Metric names are
/// sanitized to [a-zA-Z0-9_:] and prefixed `sepe_`.
std::string toPrometheus();

namespace detail {
/// The runtime gate. Out-of-line initialization (telemetry.cpp) seeds
/// it from the SEPE_TELEMETRY_ENABLED environment variable.
extern std::atomic<bool> EnabledFlag;
} // namespace detail

inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}
void setEnabled(bool On);

/// Monotonic event count. Thread-safe; relaxed ordering is enough since
/// metrics are only read at serialization points.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (enabled())
      Value.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Fixed-bucket log2 histogram of uint64 samples: bucket 0 holds the
/// value 0, bucket i (i >= 1) the range [2^(i-1), 2^i). 65 buckets
/// cover the full domain, so record() never clamps and never allocates.
class Histogram {
public:
  static constexpr size_t NumBuckets = 65;

  static size_t bucketOf(uint64_t V) {
    return static_cast<size_t>(std::bit_width(V));
  }

  /// Lowest value bucket \p I can hold (the inclusive bucket floor).
  static uint64_t bucketFloor(size_t I) {
    return I == 0 ? 0 : uint64_t{1} << (I - 1);
  }

  void record(uint64_t V) {
    if (!enabled())
      return;
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Prev = Max.load(std::memory_order_relaxed);
    while (V > Prev &&
           !Max.compare_exchange_weak(Prev, V, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Estimated \p Q-quantile (Q in [0, 1]) from the log2 layout: walk
  /// the buckets until the cumulative count crosses Q*count, then
  /// interpolate linearly inside that bucket's [floor, next-floor)
  /// range, clamped to the observed max. An estimate — exact only at
  /// bucket boundaries — but monotone in Q and never outside
  /// [0, max()], which is all the exporters need.
  double percentile(double Q) const {
    const uint64_t N = count();
    if (N == 0)
      return 0.0;
    Q = Q < 0.0 ? 0.0 : (Q > 1.0 ? 1.0 : Q);
    const double Target = Q * static_cast<double>(N);
    const double M = static_cast<double>(max());
    double Cum = 0.0;
    for (size_t I = 0; I != NumBuckets; ++I) {
      const uint64_t B = bucket(I);
      if (B == 0)
        continue;
      Cum += static_cast<double>(B);
      if (Cum < Target)
        continue;
      const double Lo = static_cast<double>(bucketFloor(I));
      double Hi = I + 1 == NumBuckets ? M
                                      : static_cast<double>(bucketFloor(I + 1));
      if (Hi > M)
        Hi = M; // the top bucket ends at the observed max
      if (Hi < Lo)
        Hi = Lo;
      double Frac = (Target - (Cum - static_cast<double>(B))) /
                    static_cast<double>(B);
      Frac = Frac < 0.0 ? 0.0 : (Frac > 1.0 ? 1.0 : Frac);
      return Lo + Frac * (Hi - Lo);
    }
    return M;
  }

  void reset() {
    for (std::atomic<uint64_t> &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// Times a scope and records the elapsed nanoseconds into a span
/// histogram on destruction. When telemetry is runtime-disabled (or
/// the span is null) the clock is never read.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram &Span)
      : ScopedTimer(enabled() ? &Span : nullptr) {}
  explicit ScopedTimer(Histogram *Span) : Span(Span) {
    if (Span)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (Span)
      Span->record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()));
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Histogram *Span;
  std::chrono::steady_clock::time_point Start;
};

/// Registry lookups: return the metric registered under \p Name,
/// creating it on first use. References are stable for the process
/// lifetime. Names are dotted lowercase paths ("layer.object.event").
Counter &counter(const char *Name);
Histogram &histogram(const char *Name);
/// Like histogram() but serialized under "spans" with ns units.
Histogram &span(const char *Name);

} // namespace sepe::telemetry

// --- Instrumentation-site macros -------------------------------------------
//
// NAME must be a string literal: it is the registry key, looked up once
// and cached in a function-local static (inside a per-site lambda) the
// first time the site runs enabled. The enabled() test comes first, so
// a disabled site never reaches the static and never evaluates N or V.
// The lambda is cold and out of line, so the compiler moves each
// enabled branch into the cold part of the function that holds the
// site, away from the code a disabled binary runs.

#define SEPE_TELEMETRY_CAT2(A, B) A##B
#define SEPE_TELEMETRY_CAT(A, B) SEPE_TELEMETRY_CAT2(A, B)

/// The site's cached metric: \p LOOKUP is counter, histogram or span.
#define SEPE_TELEMETRY_SITE(LOOKUP, NAME)                                   \
  ([]() __attribute__((cold, noinline)) -> auto & {                         \
    static auto &SepeTelemetrySite = ::sepe::telemetry::LOOKUP(NAME);       \
    return SepeTelemetrySite;                                               \
  }())

#define SEPE_COUNT_N(NAME, N)                                               \
  do {                                                                      \
    if (::sepe::telemetry::enabled())                                       \
      SEPE_TELEMETRY_SITE(counter, NAME).add(N);                            \
  } while (0)
#define SEPE_COUNT(NAME) SEPE_COUNT_N(NAME, 1)

#define SEPE_RECORD(NAME, V)                                                \
  do {                                                                      \
    if (::sepe::telemetry::enabled())                                       \
      SEPE_TELEMETRY_SITE(histogram, NAME).record(V);                       \
  } while (0)

#define SEPE_SPAN(NAME)                                                     \
  ::sepe::telemetry::ScopedTimer SEPE_TELEMETRY_CAT(SepeTelemetrySiteTimer, \
                                                    __LINE__)(              \
      ::sepe::telemetry::enabled() ? &SEPE_TELEMETRY_SITE(span, NAME)       \
                                   : nullptr)

#endif // SEPE_SUPPORT_TELEMETRY_H
