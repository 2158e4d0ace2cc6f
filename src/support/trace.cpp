//===- support/trace.cpp - Ring registry + Chrome-trace export -----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The recorder proper. Each thread lazily claims one Ring — a
// power-of-two array of seqlock slots — and is its only writer, so the
// emit path is wait-free: invalidate the slot's sequence word, store
// the payload with relaxed atomics, then release-publish the sequence.
// drain() can run from any thread (or several) concurrently with the
// writers; a slot whose sequence word does not match its expected
// position before AND after the payload read was overwritten mid-read
// and is skipped, never mis-decoded. The ring registry keeps every
// Ring alive for the process lifetime, so events emitted by a thread
// that has since exited still appear in the next drain.
//
//===----------------------------------------------------------------------===//

#include "support/trace.h"

#include "support/json.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

using namespace sepe;

const char *trace::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::DriftTripped:
    return "adaptive.drift.tripped";
  case EventKind::DriftReset:
    return "adaptive.drift.reset";
  case EventKind::SamplerSnapshot:
    return "adaptive.sampler.snapshot";
  case EventKind::SamplerDrain:
    return "adaptive.sampler.drain";
  case EventKind::ResynthJob:
    return "adaptive.resynth.job";
  case EventKind::ResynthAttempt:
    return "adaptive.resynth.attempt";
  case EventKind::SwapPublish:
    return "adaptive.swap.publish";
  case EventKind::PlanRetired:
    return "adaptive.plan.retired";
  case EventKind::MigrateShards:
    return "sharded.migrate";
  case EventKind::ShardSeal:
    return "sharded.shard.seal";
  case EventKind::ShardCopy:
    return "sharded.shard.copy";
  case EventKind::MigratePublish:
    return "sharded.migrate.publish";
  case EventKind::DualWrite:
    return "sharded.dual_write";
  case EventKind::GuardReject:
    return "sharded.guard.reject";
  case EventKind::LaneCreate:
    return "serving.lane.create";
  case EventKind::SpillSweep:
    return "serving.spill.sweep";
  case EventKind::JitCompile:
    return "jit.compile";
  case EventKind::JitRegister:
    return "jit.register";
  case EventKind::JitRetire:
    return "jit.retire";
  case EventKind::QualitySample:
    return "quality.live.sample";
  case EventKind::StaticSeal:
    return "serving.static.seal";
  case EventKind::NumKinds:
    break;
  }
  return "unknown";
}

namespace {

constexpr size_t DefaultRingCapacity = 8192;
constexpr size_t MinRingCapacity = 8;

/// One recorded event, seqlock-guarded. Seq holds AbsolutePos + 1 once
/// the payload at that position is fully written, 0 while a write is
/// in flight. All words are relaxed atomics so a racing drain is
/// data-race-free; the Seq protocol makes it also tear-free.
struct alignas(64) Slot {
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> TimeNs{0};
  std::atomic<uint64_t> DurNs{0};
  std::atomic<uint64_t> Gen{0};
  std::atomic<uint64_t> Arg{0};
  std::atomic<uint64_t> KindWord{0}; ///< kind | (IsSpan << 32)
};

/// Single-writer ring. Written is the writer's absolute position (only
/// the owning thread advances it); ReadCursor is advanced by drains and
/// by the writer when it must drop the oldest unread slot to make room.
struct Ring {
  explicit Ring(uint32_t Tid, size_t Capacity)
      : Tid(Tid), Capacity(Capacity), Mask(Capacity - 1),
        Slots(new Slot[Capacity]) {}

  const uint32_t Tid;
  const size_t Capacity;
  const size_t Mask;
  std::unique_ptr<Slot[]> Slots;
  std::atomic<uint64_t> Written{0};
  std::atomic<uint64_t> ReadCursor{0};
  std::atomic<uint64_t> Dropped{0};
};

struct RingRegistry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<Ring>> Rings;
  std::atomic<size_t> NextCapacity{DefaultRingCapacity};
  std::atomic<uint64_t> Emitted{0};
};

RingRegistry &registry() {
  static RingRegistry R;
  return R;
}

bool envEnabled() {
  const char *Env = std::getenv("SEPE_TRACE_ENABLED");
  return Env != nullptr && Env[0] != '\0' && Env[0] != '0';
}

Ring &myRing() {
  thread_local Ring *Mine = [] {
    RingRegistry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    size_t Cap = std::max(
        MinRingCapacity,
        std::bit_ceil(R.NextCapacity.load(std::memory_order_relaxed)));
    R.Rings.push_back(
        std::make_unique<Ring>(static_cast<uint32_t>(R.Rings.size()), Cap));
    return R.Rings.back().get();
  }();
  return *Mine;
}

void writeSlot(Ring &Ring, trace::EventKind K, uint64_t TimeNs,
               uint64_t DurNs, uint64_t Gen, uint64_t Arg, bool IsSpan) {
  const uint64_t Pos = Ring.Written.load(std::memory_order_relaxed);

  // Drop-oldest: if the ring is full, push the read cursor past the
  // slot about to be overwritten. CAS because a concurrent drain may
  // advance it first — whoever wins, the slot is claimed exactly once.
  uint64_t Read = Ring.ReadCursor.load(std::memory_order_acquire);
  while (Pos - Read >= Ring.Capacity) {
    if (Ring.ReadCursor.compare_exchange_weak(Read, Read + 1,
                                              std::memory_order_acq_rel)) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      Read += 1;
    }
  }

  Slot &S = Ring.Slots[Pos & Ring.Mask];
  S.Seq.store(0, std::memory_order_release);
  S.TimeNs.store(TimeNs, std::memory_order_relaxed);
  S.DurNs.store(DurNs, std::memory_order_relaxed);
  S.Gen.store(Gen, std::memory_order_relaxed);
  S.Arg.store(Arg, std::memory_order_relaxed);
  S.KindWord.store(static_cast<uint64_t>(K) |
                       (uint64_t{IsSpan ? 1u : 0u} << 32),
                   std::memory_order_relaxed);
  S.Seq.store(Pos + 1, std::memory_order_release);
  Ring.Written.store(Pos + 1, std::memory_order_release);
  registry().Emitted.fetch_add(1, std::memory_order_relaxed);
}

/// Reads the unread range of \p Ring into \p Out and consumes it.
/// Slots overwritten while being read fail the before/after sequence
/// check and count as drops.
void drainRing(Ring &Ring, std::vector<trace::Event> &Out) {
  const uint64_t End = Ring.Written.load(std::memory_order_acquire);
  uint64_t Begin = Ring.ReadCursor.load(std::memory_order_acquire);
  // Claim [Begin, End) up front so concurrent drains partition the
  // range instead of double-reporting it.
  while (Begin < End) {
    if (Ring.ReadCursor.compare_exchange_weak(Begin, End,
                                              std::memory_order_acq_rel))
      break;
  }
  for (uint64_t Pos = Begin; Pos < End; ++Pos) {
    Slot &S = Ring.Slots[Pos & Ring.Mask];
    if (S.Seq.load(std::memory_order_acquire) != Pos + 1) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    trace::Event E;
    E.TimeNs = S.TimeNs.load(std::memory_order_relaxed);
    E.DurNs = S.DurNs.load(std::memory_order_relaxed);
    E.Gen = S.Gen.load(std::memory_order_relaxed);
    E.Arg = S.Arg.load(std::memory_order_relaxed);
    const uint64_t KindWord = S.KindWord.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (S.Seq.load(std::memory_order_relaxed) != Pos + 1) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      continue; // overwritten mid-read
    }
    E.Tid = Ring.Tid;
    E.Kind = static_cast<trace::EventKind>(KindWord & 0xffffffffu);
    E.IsSpan = (KindWord >> 32) != 0;
    Out.push_back(E);
  }
}

} // namespace

std::atomic<bool> trace::detail::EnabledFlag{envEnabled()};

void trace::setEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
}

uint64_t trace::detail::nowNs() {
  // One process-local epoch so timestamps are small, positive, and
  // directly comparable across threads.
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void trace::detail::emitImpl(EventKind K, uint64_t Gen, uint64_t Arg) {
  writeSlot(myRing(), K, nowNs(), 0, Gen, Arg, /*IsSpan=*/false);
}

void trace::detail::emitSpanImpl(EventKind K, uint64_t StartNs,
                                 uint64_t DurNs, uint64_t Gen,
                                 uint64_t Arg) {
  writeSlot(myRing(), K, StartNs, DurNs, Gen, Arg, /*IsSpan=*/true);
}

std::vector<trace::Event> trace::drain() {
  std::vector<Event> Out;
  RingRegistry &R = registry();
  {
    std::lock_guard<std::mutex> Lock(R.Mutex);
    for (std::unique_ptr<Ring> &Ring : R.Rings)
      drainRing(*Ring, Out);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Event &A, const Event &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  return Out;
}

uint64_t trace::emitted() {
  return registry().Emitted.load(std::memory_order_relaxed);
}

uint64_t trace::dropped() {
  RingRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (std::unique_ptr<Ring> &Ring : R.Rings)
    Total += Ring->Dropped.load(std::memory_order_relaxed);
  return Total;
}

uint64_t trace::occupancy() {
  RingRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (std::unique_ptr<Ring> &Ring : R.Rings) {
    const uint64_t W = Ring->Written.load(std::memory_order_acquire);
    const uint64_t C = Ring->ReadCursor.load(std::memory_order_acquire);
    Total += std::min<uint64_t>(W - C, Ring->Capacity);
  }
  return Total;
}

void trace::setRingCapacity(size_t Events) {
  registry().NextCapacity.store(std::max(MinRingCapacity, Events),
                                std::memory_order_relaxed);
}

// --- Chrome-trace export ----------------------------------------------------

namespace {

/// Microseconds with sub-microsecond precision, as Chrome expects.
std::string formatMicros(uint64_t Ns) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned long long>(Ns % 1000));
  return Buf;
}

} // namespace

bool trace::writeChromeTrace(const std::string &Path) {
  std::vector<Event> Events = drain();
  const uint64_t Base = Events.empty() ? 0 : Events.front().TimeNs;

  std::string Out;
  Out.reserve(128 + Events.size() * 128);
  Out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  Out += "\"generator\":\"sepe-trace\"";
  Out += ",\"emitted\":" + std::to_string(emitted());
  Out += ",\"dropped\":" + std::to_string(dropped());
  Out += "},\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"";
    // Names are compile-time literals today, but route them through the
    // shared escaper so the emitter can never produce invalid JSON.
    Out += json::escapeString(eventKindName(E.Kind));
    Out += "\",\"cat\":\"sepe\",\"ph\":\"";
    Out += E.IsSpan ? 'X' : 'i';
    Out += "\",\"ts\":" + formatMicros(E.TimeNs - Base);
    if (E.IsSpan)
      Out += ",\"dur\":" + formatMicros(E.DurNs);
    else
      Out += ",\"s\":\"t\"";
    Out += ",\"pid\":1,\"tid\":" + std::to_string(E.Tid);
    Out += ",\"args\":{\"gen\":" + std::to_string(E.Gen);
    Out += ",\"arg\":" + std::to_string(E.Arg);
    Out += "}}";
  }
  Out += "]}";

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  const bool Wrote = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return (std::fclose(F) == 0) && Wrote;
}
