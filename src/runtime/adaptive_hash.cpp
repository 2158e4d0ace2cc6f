//===- runtime/adaptive_hash.cpp - Guarded dispatch + hot re-synthesis ----===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "runtime/adaptive_hash.h"

#include "core/inference.h"
#include "core/synthesizer.h"
#include "hashes/city.h"
#include "hashes/low_level_hash.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <utility>

namespace sepe {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

DriftProbe findDriftProbe(const KeyPattern &Pattern) {
  for (size_t I = 0; I != Pattern.minLength(); ++I)
    for (const uint8_t Candidate : {uint8_t{0xFF}, uint8_t{'X'},
                                    uint8_t{'!'}})
      if (!Pattern.byteAt(I).matches(Candidate))
        return {I, static_cast<char>(Candidate), true};
  return {};
}

AdaptiveHash::AdaptiveHash(KeyPattern Pattern, AdaptiveOptions Opts)
    : Options(Opts), Sampler(Opts.SamplerCapacity),
      InFormatSampler(Opts.SamplerCapacity, 0x1f5a),
      Detector(Opts.DriftWindow, Opts.DriftThreshold) {
  auto G = std::make_unique<Generation>();
  G->Pattern = std::move(Pattern);
  G->Epoch = 0;
  if (!G->Pattern.empty()) {
    Expected<HashPlan> Plan = synthesize(G->Pattern, Options.Family);
    if (Plan) {
      G->Fast = SynthesizedHash(Plan.take(), Options.Isa, Options.Preferred);
      G->Guard = G->Fast.compileGuard(G->Pattern);
    }
    // A pattern the synthesizer rejects (e.g. all-constant) cold-starts
    // on the fallback lane like an empty one.
  }
  {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    publish(std::move(G));
  }
  if (Options.Background)
    Worker = std::make_unique<Resynthesizer>(
        [this] { performResynthesis(/*RespectCooldown=*/true); });
}

AdaptiveHash::~AdaptiveHash() {
  if (Worker)
    Worker->stop();
}

void AdaptiveHash::publish(std::unique_ptr<const Generation> G) {
  // Callers hold SwapMutex. Release order pairs with the acquire load
  // in active(): a reader that sees the new pointer sees the fully
  // constructed generation behind it.
  const Generation *Prev = Active.load(std::memory_order_relaxed);
  const Generation *Raw = G.get();
  Retired.push_back(std::move(G));
  Active.store(Raw, std::memory_order_release);
  SEPE_TRACE_INSTANT(SwapPublish, Raw->Epoch, 0);
  if (Prev != nullptr)
    SEPE_TRACE_INSTANT(PlanRetired, Prev->Epoch, 0);
}

uint64_t AdaptiveHash::fallbackHash(std::string_view Key) const {
  return Options.Fallback == FallbackKind::City
             ? cityHash64(Key.data(), Key.size())
             : lowLevelHash(Key.data(), Key.size(), 0);
}

void AdaptiveHash::onTripped() const {
  SEPE_COUNT("adaptive.window.tripped");
  SEPE_TRACE_INSTANT(DriftTripped, active()->Epoch,
                     static_cast<uint64_t>(Detector.lastRatio() * 1e6));
  Pending.store(true, std::memory_order_release);
  if (Worker)
    Worker->trigger();
}

void AdaptiveHash::sampleInFormatBatch(const Generation *G,
                                       const std::string_view *Keys,
                                       size_t N, size_t Misses) const {
  const size_t Every = Options.QualitySampleEvery;
  if (Every == 0 || !G->Fast.valid() || Misses >= N)
    return;
  const uint64_t Admitted = N - Misses;
  const uint64_t Before =
      InFormatTick.fetch_add(Admitted, std::memory_order_relaxed);
  // One candidate per Every-boundary this batch's admitted keys cross.
  // The candidate index walks the batch with the tick; the membership
  // check keeps guard-missed keys out of the quality reservoir without
  // paying for a per-key scan.
  for (uint64_t T = Before + (Every - Before % Every) % Every;
       T < Before + Admitted; T += Every) {
    const std::string_view Key = Keys[static_cast<size_t>(T % N)];
    if (G->Pattern.matches(Key))
      InFormatSampler.offer(Key);
  }
}

uint64_t AdaptiveHash::operator()(std::string_view Key) const {
  const Generation *G = active();
  if (G->Fast.valid() && G->Pattern.matches(Key)) {
    const uint64_t H = G->Fast(Key);
    maybeSampleInFormat(Key);
    if (Detector.observe(1, 0) == DriftDetector::Window::Tripped)
      onTripped();
    return H;
  }
  Sampler.offer(Key);
  if (Detector.observe(1, 1) == DriftDetector::Window::Tripped)
    onTripped();
  return fallbackHash(Key);
}

void AdaptiveHash::hashBatch(const std::string_view *Keys, uint64_t *Out,
                             size_t N) const {
  const Generation *G = active();
  size_t Misses = 0;
  if (!G->Fast.valid()) {
    // Cold start: everything takes the fallback lane and is sampled.
    for (size_t I = 0; I != N; ++I) {
      Out[I] = fallbackHash(Keys[I]);
      Sampler.offer(Keys[I]);
    }
    Misses = N;
  } else {
    constexpr size_t Block = 1024;
    uint32_t MissIdx[Block];
    for (size_t Base = 0; Base < N; Base += Block) {
      const size_t Count = N - Base < Block ? N - Base : Block;
      const size_t M = G->Fast.hashBatchGuarded(
          G->Pattern, G->Guard, Keys + Base, Out + Base, Count, MissIdx);
      for (size_t I = 0; I != M; ++I) {
        const size_t K = Base + MissIdx[I];
        Out[K] = fallbackHash(Keys[K]);
        Sampler.offer(Keys[K]);
      }
      Misses += M;
    }
  }
  sampleInFormatBatch(G, Keys, N, Misses);
  SEPE_COUNT_N("adaptive.guard.pass_keys", N - Misses);
  SEPE_COUNT_N("adaptive.guard.miss_keys", Misses);
  if (Detector.observe(N, Misses) == DriftDetector::Window::Tripped) {
    SEPE_RECORD("adaptive.window.mismatch_ppm",
                static_cast<uint64_t>(Detector.lastRatio() * 1e6));
    onTripped();
  }
}

AdaptiveHash::Routed AdaptiveHash::route(std::string_view Key) const {
  const Generation *G = active();
  if (G->Fast.valid() && G->Pattern.matches(Key)) {
    const uint64_t H = G->Fast(Key);
    maybeSampleInFormat(Key);
    if (Detector.observe(1, 0) == DriftDetector::Window::Tripped)
      onTripped();
    return {H, G->Epoch, true};
  }
  Sampler.offer(Key);
  if (Detector.observe(1, 1) == DriftDetector::Window::Tripped)
    onTripped();
  return {fallbackHash(Key), G->Epoch, false};
}

size_t AdaptiveHash::routeBatch(const std::string_view *Keys, uint64_t *Out,
                                size_t N, uint32_t *MissIdx,
                                uint64_t &Epoch) const {
  const Generation *G = active();
  Epoch = G->Epoch;
  size_t Misses = 0;
  if (!G->Fast.valid()) {
    for (size_t I = 0; I != N; ++I) {
      Out[I] = fallbackHash(Keys[I]);
      Sampler.offer(Keys[I]);
      MissIdx[Misses++] = static_cast<uint32_t>(I);
    }
  } else {
    constexpr size_t Block = 1024;
    uint32_t Local[Block];
    for (size_t Base = 0; Base < N; Base += Block) {
      const size_t Count = N - Base < Block ? N - Base : Block;
      const size_t M = G->Fast.hashBatchGuarded(
          G->Pattern, G->Guard, Keys + Base, Out + Base, Count, Local);
      for (size_t I = 0; I != M; ++I) {
        const size_t K = Base + Local[I];
        Out[K] = fallbackHash(Keys[K]);
        Sampler.offer(Keys[K]);
        MissIdx[Misses++] = static_cast<uint32_t>(K);
      }
    }
    sampleInFormatBatch(G, Keys, N, Misses);
  }
  SEPE_COUNT_N("adaptive.guard.pass_keys", N - Misses);
  SEPE_COUNT_N("adaptive.guard.miss_keys", Misses);
  if (Detector.observe(N, Misses) == DriftDetector::Window::Tripped) {
    SEPE_RECORD("adaptive.window.mismatch_ppm",
                static_cast<uint64_t>(Detector.lastRatio() * 1e6));
    onTripped();
  }
  return Misses;
}

uint64_t AdaptiveHash::epoch() const { return active()->Epoch; }

KeyPattern AdaptiveHash::pattern() const { return active()->Pattern; }

SynthesizedHash AdaptiveHash::specialized() const { return active()->Fast; }

AdaptiveHash::Snapshot AdaptiveHash::snapshot() const {
  const Generation *G = active();
  return {G->Epoch, G->Pattern, G->Fast};
}

void AdaptiveHash::setSwapListener(
    std::function<void(uint64_t)> Listener) {
  std::lock_guard<std::mutex> Lock(SwapMutex);
  SwapListener = std::move(Listener);
}

bool AdaptiveHash::pumpResynthesis() {
  return performResynthesis(/*RespectCooldown=*/false);
}

bool AdaptiveHash::performResynthesis(bool RespectCooldown) {
  SEPE_SPAN("adaptive.resynthesis");
  SEPE_TRACE_SPAN(TraceSpan, ResynthAttempt, epoch());
  uint64_t NewEpoch = 0;
  std::function<void(uint64_t)> Listener;
  {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    Pending.store(false, std::memory_order_release);
    if (RespectCooldown) {
      const int64_t Last = LastSwapNs.load(std::memory_order_relaxed);
      const int64_t CooldownNs =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Options.Cooldown)
              .count();
      if (Last != 0 && nowNs() - Last < CooldownNs) {
        SEPE_COUNT("adaptive.resynthesis.skipped_cooldown");
        TraceSpan.setArg(
            static_cast<uint64_t>(trace::ResynthOutcome::SkippedCooldown));
        return false;
      }
    }
    if (Sampler.size() < Options.MinSamples) {
      SEPE_COUNT("adaptive.resynthesis.skipped_few_samples");
      TraceSpan.setArg(
          static_cast<uint64_t>(trace::ResynthOutcome::SkippedFewSamples));
      return false;
    }
    const Generation *Cur = Active.load(std::memory_order_relaxed);
    const std::vector<std::string> Samples = Sampler.drain();
    const KeyPattern Sampled = inferPattern(Samples);
    // Cold start joins nothing: joining with an empty pattern would widen
    // MinLen to 0 and every position to near-top, destroying the structure
    // the samples just revealed.
    const KeyPattern Joined = (!Cur->Fast.valid() && Cur->Pattern.empty())
                                  ? Sampled
                                  : join(Cur->Pattern, Sampled);
    if (Joined == Cur->Pattern) {
      SEPE_COUNT("adaptive.resynthesis.skipped_unchanged");
      TraceSpan.setArg(
          static_cast<uint64_t>(trace::ResynthOutcome::SkippedUnchanged));
      return false;
    }
    Expected<HashPlan> Plan = synthesize(Joined, Options.Family);
    if (!Plan) {
      SEPE_COUNT("adaptive.resynthesis.synthesis_failed");
      TraceSpan.setArg(
          static_cast<uint64_t>(trace::ResynthOutcome::SynthesisFailed));
      FailedSyntheses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    auto G = std::make_unique<Generation>();
    G->Pattern = Joined;
    G->Fast = SynthesizedHash(Plan.take(), Options.Isa, Options.Preferred);
    G->Guard = G->Fast.compileGuard(G->Pattern);
    G->Epoch = Cur->Epoch + 1;
    NewEpoch = G->Epoch;
    publish(std::move(G));
    Swaps.fetch_add(1, std::memory_order_relaxed);
    LastSwapNs.store(nowNs(), std::memory_order_relaxed);
    Detector.reset(NewEpoch);
    SEPE_COUNT("adaptive.swap");
    TraceSpan.setGen(NewEpoch);
    TraceSpan.setArg(static_cast<uint64_t>(trace::ResynthOutcome::Swapped));
    Listener = SwapListener;
  }
  // Outside SwapMutex so a listener may call back into the hash (e.g.
  // pump again, or read snapshot()) without self-deadlocking.
  if (Listener)
    Listener(NewEpoch);
  return true;
}

} // namespace sepe
