//===- support/trace.h - Lock-free flight recorder --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing plane: a per-thread ring-buffer flight recorder for the
/// adaptive runtime's control-plane events. Where telemetry.h answers
/// "how many / how long on aggregate", this layer answers "what
/// happened, in what order, on which thread" — each event carries a
/// monotonic timestamp, the emitting thread, an event kind, the plan
/// generation it concerns, and (for spans) a duration, so a drift trip
/// can be causally followed through re-synthesis, hot swap, shard
/// migration, and JIT code retirement across threads.
///
/// One gate, at run time, as in telemetry.h: emission is off unless
/// setEnabled(true) is called or SEPE_TRACE_ENABLED is set in the
/// environment. The SEPE_TRACE_* macros test enabled() before they
/// evaluate GEN or ARG, so a disabled site is one relaxed load and a
/// predictable branch and the clock is never read. Sites mark
/// lifecycle events (drift trips, swaps, migrations, sweeps, JIT
/// attach and retire, guard rejections on the migration redo path),
/// never per-key work.
///
/// Memory is bounded: each thread owns a fixed-capacity ring
/// (setRingCapacity, default 8192 events) and a writer that catches up
/// to the read cursor overwrites the OLDEST unread event and counts the
/// drop — the recorder never blocks and never allocates on the emit
/// path after the ring exists. Rings are seqlock-guarded slots of
/// relaxed atomics, so concurrent drain() is race-free (TSan-clean):
/// the drain merges every thread's unread events into one
/// timestamp-ordered vector and consumes them. Torn slots (overwritten
/// mid-read) are detected by the sequence word and skipped — a skipped
/// slot counts as dropped, never as a corrupt event.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_TRACE_H
#define SEPE_SUPPORT_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sepe::trace {

/// What happened. The numeric value is stable within a build only; the
/// exported name (eventKindName) is the schema. Kinds marked (span)
/// are emitted with a duration by trace::Span; the rest are instants.
enum class EventKind : uint16_t {
  DriftTripped = 0, ///< DriftDetector window closed over threshold
                    ///  (arg = miss ratio in ppm).
  DriftReset,       ///< Detector state cleared after a swap.
  SamplerSnapshot,  ///< KeySampler reservoir copied (arg = sample count).
  SamplerDrain,     ///< KeySampler reservoir consumed (arg = sample count).
  ResynthJob,       ///< (span) One queued job on the resynthesizer worker.
  ResynthAttempt,   ///< (span) performResynthesis body (arg = outcome,
                    ///  see ResynthOutcome).
  SwapPublish,      ///< New generation published (gen = new epoch).
  PlanRetired,      ///< Old generation moved to the retire list
                    ///  (gen = retired epoch).
  MigrateShards,    ///< (span) Whole-table migration (gen = new epoch,
                    ///  arg = entries copied).
  ShardSeal,        ///< One shard sealed for dual-write (arg = shard).
  ShardCopy,        ///< (span) One shard re-hashed into the successor
                    ///  (arg = shard).
  MigratePublish,   ///< Successor table swapped in (gen = new epoch).
  DualWrite,        ///< Sealed-shard mutation replayed into successor.
  GuardReject,      ///< Guarded probe refused a non-conforming key.
  LaneCreate,       ///< ServingTable built a fast lane (gen = epoch).
  SpillSweep,       ///< (span) Spill lane swept back into the fast lane
                    ///  (arg = entries moved).
  JitCompile,       ///< (span) Machine code emitted (arg = code bytes).
  JitRegister,      ///< Compiled program attached to an executor
                    ///  (arg = code bytes).
  JitRetire,        ///< Program destroyed, code unmapped (arg = code
                    ///  bytes).
  QualitySample,    ///< Live quality monitor pumped (gen = plan epoch,
                    ///  arg = occupancy skew x1000).
  StaticSeal,       ///< ServingTable sealed a static MPHF lane
                    ///  (gen = keys sealed).
  NumKinds
};

/// Outcome codes carried in the ResynthAttempt arg.
enum class ResynthOutcome : uint64_t {
  Swapped = 0,
  SkippedCooldown,
  SkippedFewSamples,
  SkippedUnchanged,
  SynthesisFailed,
};

/// Dotted schema name for \p K ("adaptive.drift.tripped", ...). Stable
/// across builds; also the Chrome-trace event name.
const char *eventKindName(EventKind K);

/// One drained event. TimeNs is nanoseconds since an arbitrary
/// process-local monotonic epoch; for spans it is the START of the
/// scope and DurNs its length (instants carry DurNs == 0).
struct Event {
  uint64_t TimeNs = 0;
  uint64_t DurNs = 0;
  uint64_t Gen = 0;
  uint64_t Arg = 0;
  uint32_t Tid = 0;
  EventKind Kind = EventKind::NumKinds;
  bool IsSpan = false;
};

/// Merges every thread's unread events into timestamp order and
/// consumes them (a second drain returns only newer events). Safe to
/// call concurrently with emitters and with other drains.
std::vector<Event> drain();

/// Total events successfully recorded since process start.
uint64_t emitted();
/// Events lost to ring wrap (drop-oldest) or torn-slot skips.
uint64_t dropped();
/// Events currently buffered across all rings, awaiting drain.
uint64_t occupancy();

/// Ring size (events per thread) for rings created AFTER the call;
/// existing rings keep their capacity. Rounded up to a power of two,
/// minimum 8. Intended for tests; the default is 8192.
void setRingCapacity(size_t Events);

/// Drains the recorder and writes Chrome tracing / Perfetto JSON
/// ({"traceEvents":[...]}, "ph":"X" complete events for spans,
/// "ph":"i" instants, ts/dur in microseconds relative to the first
/// event). Always writes a valid document — an empty recorder yields
/// an empty traceEvents array. Returns false only on I/O failure.
bool writeChromeTrace(const std::string &Path);

namespace detail {
/// The runtime gate, seeded from SEPE_TRACE_ENABLED (trace.cpp).
extern std::atomic<bool> EnabledFlag;
uint64_t nowNs();
/// Cold, so a site's enabled branch leaves the function that holds it.
[[gnu::cold]] void emitImpl(EventKind K, uint64_t Gen, uint64_t Arg);
[[gnu::cold]] void emitSpanImpl(EventKind K, uint64_t StartNs,
                                uint64_t DurNs, uint64_t Gen, uint64_t Arg);
} // namespace detail

inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}
void setEnabled(bool On);

/// Records an instant event on the calling thread's ring. The disabled
/// path is one relaxed load and a branch; the clock is never read.
inline void emit(EventKind K, uint64_t Gen = 0, uint64_t Arg = 0) {
  if (enabled())
    detail::emitImpl(K, Gen, Arg);
}

/// RAII duration event: stamps the start on construction, emits on
/// destruction with the elapsed time. setArg/setGen let the scope
/// attach results discovered mid-flight (entries copied, code bytes,
/// the epoch a resynthesis ended up publishing). Inactive — no clock
/// reads, no emission — when default-constructed or when tracing is
/// disabled at construction.
class Span {
public:
  Span() = default;
  explicit Span(EventKind K, uint64_t Gen = 0)
      : Kind(K), Gen(Gen), Active(enabled()) {
    if (Active)
      StartNs = detail::nowNs();
  }
  ~Span() {
    if (Active)
      detail::emitSpanImpl(Kind, StartNs, detail::nowNs() - StartNs, Gen,
                           Arg);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void setArg(uint64_t A) { Arg = A; }
  void setGen(uint64_t G) { Gen = G; }

private:
  EventKind Kind = EventKind::NumKinds;
  uint64_t Gen = 0;
  uint64_t Arg = 0;
  uint64_t StartNs = 0;
  bool Active = false;
};

} // namespace sepe::trace

// --- Instrumentation-site macros -------------------------------------------
//
// KIND is a bare EventKind enumerator name. GEN and ARG are evaluated
// only when tracing is enabled, so sites must not rely on their side
// effects.

#define SEPE_TRACE_INSTANT(KIND, GEN, ARG)                                   \
  do {                                                                       \
    if (::sepe::trace::enabled())                                            \
      ::sepe::trace::detail::emitImpl(::sepe::trace::EventKind::KIND, (GEN), \
                                      (ARG));                                \
  } while (0)

#define SEPE_TRACE_SPAN(VAR, KIND, GEN)                                      \
  ::sepe::trace::Span VAR =                                                  \
      ::sepe::trace::enabled()                                               \
          ? ::sepe::trace::Span(::sepe::trace::EventKind::KIND, (GEN))       \
          : ::sepe::trace::Span()

#endif // SEPE_SUPPORT_TRACE_H
