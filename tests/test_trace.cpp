//===- tests/test_trace.cpp - Flight recorder ------------------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The runtime gate and the ring-buffer semantics: drop-oldest wrap,
// cross-thread drain ordering, span durations, and the Chrome-trace
// export shape.
//
//===----------------------------------------------------------------------===//

#include "support/trace.h"

#include "support/json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace sepe;

namespace {

/// Enables recording for one test body and leaves the recorder empty:
/// drains on entry (discarding events leaked by other tests) and
/// disables + drains again on exit.
struct TraceScope {
  TraceScope() {
    (void)trace::drain();
    trace::setEnabled(true);
  }
  ~TraceScope() {
    trace::setEnabled(false);
    (void)trace::drain();
  }
};

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

TEST(TraceCoreTest, DisabledByDefault) {
  // Emission must be opt-in (setEnabled or the SEPE_TRACE_ENABLED env
  // var, which the test harness never sets).
  EXPECT_FALSE(trace::enabled());
}

TEST(TraceCoreTest, DisabledEmitIsANoOp) {
  // A runtime-disabled emit records nothing, and a disabled macro site
  // does not evaluate its arguments.
  ASSERT_FALSE(trace::enabled());
  int Evaluated = 0;
  const auto Count = [&Evaluated] { return ++Evaluated; };
  SEPE_TRACE_INSTANT(DriftReset, Count(), Count());
  {
    SEPE_TRACE_SPAN(Unarmed, ShardCopy, Count());
  }
  EXPECT_EQ(Evaluated, 0);
  const uint64_t Before = trace::emitted();
  SEPE_TRACE_INSTANT(SwapPublish, 7, 0);
  trace::emit(trace::EventKind::DriftTripped, 1, 2);
  {
    SEPE_TRACE_SPAN(S, ResynthAttempt, 3);
    trace::Span Direct(trace::EventKind::JitCompile);
    Direct.setArg(64);
  }
  EXPECT_EQ(trace::emitted(), Before);
  EXPECT_EQ(trace::occupancy(), 0u);
  EXPECT_TRUE(trace::drain().empty());
}

TEST(TraceCoreTest, EventKindNamesAreTotal) {
  for (uint16_t K = 0;
       K != static_cast<uint16_t>(trace::EventKind::NumKinds); ++K) {
    const char *Name =
        trace::eventKindName(static_cast<trace::EventKind>(K));
    ASSERT_NE(Name, nullptr);
    EXPECT_NE(std::string(Name), "");
    EXPECT_NE(std::string(Name), "?") << "kind " << K;
  }
}

TEST(TraceRingTest, EmitDrainRoundTrip) {
  TraceScope Scope;
  trace::emit(trace::EventKind::DriftTripped, 4, 250000);
  trace::emit(trace::EventKind::SwapPublish, 5, 0);
  const std::vector<trace::Event> Events = trace::drain();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Kind, trace::EventKind::DriftTripped);
  EXPECT_EQ(Events[0].Gen, 4u);
  EXPECT_EQ(Events[0].Arg, 250000u);
  EXPECT_FALSE(Events[0].IsSpan);
  EXPECT_EQ(Events[0].DurNs, 0u);
  EXPECT_EQ(Events[1].Kind, trace::EventKind::SwapPublish);
  EXPECT_LE(Events[0].TimeNs, Events[1].TimeNs);
  // Same thread: one ring, one tid.
  EXPECT_EQ(Events[0].Tid, Events[1].Tid);
  // Consumed: a second drain sees only newer events.
  EXPECT_TRUE(trace::drain().empty());
}

TEST(TraceRingTest, SpanCarriesDuration) {
  TraceScope Scope;
  {
    trace::Span S(trace::EventKind::JitCompile, 9);
    S.setArg(128);
  }
  const std::vector<trace::Event> Events = trace::drain();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_TRUE(Events[0].IsSpan);
  EXPECT_EQ(Events[0].Kind, trace::EventKind::JitCompile);
  EXPECT_EQ(Events[0].Gen, 9u);
  EXPECT_EQ(Events[0].Arg, 128u);
}

TEST(TraceRingTest, WrapDropsOldestAndCountsDrops) {
  // A fresh thread gets a fresh ring, so the shrunken capacity applies
  // regardless of what the main thread's ring already is.
  trace::setRingCapacity(8);
  const uint64_t DroppedBefore = trace::dropped();
  std::thread Writer([] {
    trace::setEnabled(true);
    for (uint64_t I = 0; I != 20; ++I)
      trace::emit(trace::EventKind::DualWrite, 1, I);
    trace::setEnabled(false);
  });
  Writer.join();
  trace::setRingCapacity(8192); // Restore the default for later tests.
  std::vector<trace::Event> Mine;
  for (const trace::Event &E : trace::drain())
    if (E.Kind == trace::EventKind::DualWrite && E.Gen == 1)
      Mine.push_back(E);
  // 20 emitted into 8 slots: the 8 NEWEST survive, oldest dropped.
  ASSERT_EQ(Mine.size(), 8u);
  for (size_t I = 0; I != Mine.size(); ++I)
    EXPECT_EQ(Mine[I].Arg, 12 + I) << "expected the newest events";
  EXPECT_EQ(trace::dropped() - DroppedBefore, 12u);
}

TEST(TraceRingTest, MultiThreadDrainIsTimeOrdered) {
  TraceScope Scope;
  constexpr size_t NumThreads = 4;
  constexpr uint64_t PerThread = 64;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        trace::emit(trace::EventKind::GuardReject, T, I);
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<trace::Event> Events;
  for (const trace::Event &E : trace::drain())
    if (E.Kind == trace::EventKind::GuardReject)
      Events.push_back(E);
  ASSERT_EQ(Events.size(), NumThreads * PerThread);
  std::vector<uint64_t> PerTidCount(NumThreads + 2, 0);
  for (size_t I = 0; I != Events.size(); ++I) {
    if (I != 0) {
      EXPECT_LE(Events[I - 1].TimeNs, Events[I].TimeNs)
          << "drain must merge rings into time order";
    }
    ASSERT_LT(Events[I].Gen, NumThreads);
  }
  // Per-thread suborder survives the merge: each emitter's args must
  // come back ascending within its own Gen lane.
  for (size_t T = 0; T != NumThreads; ++T) {
    uint64_t Expect = 0;
    for (const trace::Event &E : Events)
      if (E.Gen == T) {
        EXPECT_EQ(E.Arg, Expect++);
      }
    EXPECT_EQ(Expect, PerThread);
  }
}

TEST(TraceChromeTest, GoldenShape) {
  const std::string Path = tempPath("sepe_trace_golden.json");
  const uint64_t SpanCount = 1, InstantCount = 2;
  {
    TraceScope Scope;
    trace::emit(trace::EventKind::DriftTripped, 3, 250000);
    {
      trace::Span S(trace::EventKind::MigrateShards, 4);
      S.setArg(17);
    }
    trace::emit(trace::EventKind::SwapPublish, 4, 0);
    ASSERT_TRUE(trace::writeChromeTrace(Path));
  }

  Expected<json::Value> Doc = json::parseFile(Path);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->array().size(), SpanCount + InstantCount);

  uint64_t Spans = 0, Instants = 0;
  double LastTs = 0;
  for (const json::Value &E : Events->array()) {
    const json::Value *Ph = E.find("ph");
    const json::Value *Ts = E.find("ts");
    ASSERT_NE(Ph, nullptr);
    ASSERT_TRUE(Ph->isString());
    ASSERT_NE(Ts, nullptr);
    ASSERT_TRUE(Ts->isNumber());
    ASSERT_NE(E.find("tid"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("name"), nullptr);
    EXPECT_GE(Ts->number(), LastTs) << "events must be sorted";
    LastTs = Ts->number();
    const std::string &Kind = Ph->string();
    if (Kind == "X") {
      ++Spans;
      EXPECT_NE(E.find("dur"), nullptr) << "complete events carry dur";
    } else {
      EXPECT_EQ(Kind, "i");
      ++Instants;
    }
  }
  EXPECT_EQ(Spans, SpanCount);
  EXPECT_EQ(Instants, InstantCount);
  std::remove(Path.c_str());
}

TEST(TraceChromeTest, ArgsCarryGeneration) {
  const std::string Path = tempPath("sepe_trace_args.json");
  {
    TraceScope Scope;
    trace::emit(trace::EventKind::SwapPublish, 42, 7);
    ASSERT_TRUE(trace::writeChromeTrace(Path));
  }
  Expected<json::Value> Doc = json::parseFile(Path);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->array().size(), 1u);
  const json::Value &E = Events->array()[0];
  EXPECT_EQ(E.stringOr("name", ""), "adaptive.swap.publish");
  const json::Value *Args = E.find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->numberOr("gen", -1), 42.0);
  EXPECT_EQ(Args->numberOr("arg", -1), 7.0);
  std::remove(Path.c_str());
}

} // namespace
