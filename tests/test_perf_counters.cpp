//===- tests/test_perf_counters.cpp - PMU group wrapper -------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Exercises both halves of the degradation contract. When the host
// grants perf_event_open (a bare-metal Linux dev box), live counters
// must be plausible: nonzero instructions for a spin loop, more
// instructions for more work, monotonic read()s while enabled. When it
// does not (seccomp-filtered CI containers, perf_event_paranoid,
// non-Linux), every reading must be a well-formed "unavailable"
// fallback: Valid == false, zero counts, zero derived metrics, and a
// toJson() that still parses. Both paths run everywhere — the live
// assertions simply skip where the backend is down, so the suite is
// green in a container where the syscall is denied.
//
//===----------------------------------------------------------------------===//

#include "support/perf_counters.h"

#include "support/json.h"
#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace sepe;

namespace {

/// Opaque work: enough instructions to register on any live counter.
uint64_t spin(uint64_t Iterations) {
  uint64_t Sink = 0;
  for (uint64_t I = 0; I != Iterations; ++I)
    Sink += I * 2654435761u;
  asm volatile("" : : "r"(Sink) : "memory");
  return Sink;
}

TEST(PerfCounters, ProbeIsConsistent) {
  // available() and unavailableReason() must agree, and repeated calls
  // must return the same cached verdict.
  const bool First = perf::available();
  EXPECT_EQ(First, perf::available());
  if (First)
    EXPECT_EQ(perf::unavailableReason(), "available");
  else
    EXPECT_FALSE(perf::unavailableReason().empty());
}

TEST(PerfCounters, GroupLivenessMatchesProbe) {
  perf::CounterGroup Group;
  EXPECT_EQ(Group.live(), perf::available());
}

TEST(PerfCounters, LiveCountersArePlausible) {
  perf::CounterGroup Group;
  if (!Group.live())
    GTEST_SKIP() << "perf_event_open unavailable: "
                 << perf::unavailableReason();

  perf::CounterReading Reading;
  {
    perf::ScopedCounters Scope(Group, Reading);
    spin(200000);
  }
  ASSERT_TRUE(Reading.Valid);
  EXPECT_GT(Reading.Instructions, 0u);
  EXPECT_GT(Reading.TimeEnabledNs, 0u);
  // A multiply-add loop retires at least one instruction per
  // iteration; anything lower means the counts are garbage.
  EXPECT_GE(Reading.Instructions, 200000u);
  if (Reading.Cycles > 0) {
    EXPECT_GT(Reading.ipc(), 0.0);
  }
}

TEST(PerfCounters, MoreWorkMoreInstructions) {
  perf::CounterGroup Group;
  if (!Group.live())
    GTEST_SKIP() << "perf_event_open unavailable: "
                 << perf::unavailableReason();

  perf::CounterReading Small, Large;
  {
    perf::ScopedCounters Scope(Group, Small);
    spin(100000);
  }
  {
    perf::ScopedCounters Scope(Group, Large);
    spin(1000000);
  }
  ASSERT_TRUE(Small.Valid);
  ASSERT_TRUE(Large.Valid);
  // 10x the work: demand a clear separation, not exact ratios, so the
  // test is immune to counter noise and fixed start/stop overhead.
  EXPECT_GT(Large.Instructions, Small.Instructions * 2);
}

TEST(PerfCounters, ReadIsMonotonicWhileRunning) {
  perf::CounterGroup Group;
  if (!Group.live())
    GTEST_SKIP() << "perf_event_open unavailable: "
                 << perf::unavailableReason();

  Group.start();
  spin(50000);
  const perf::CounterReading First = Group.read();
  spin(50000);
  const perf::CounterReading Second = Group.read();
  const perf::CounterReading Final = Group.stop();

  ASSERT_TRUE(First.Valid);
  ASSERT_TRUE(Second.Valid);
  ASSERT_TRUE(Final.Valid);
  EXPECT_GE(Second.Instructions, First.Instructions);
  EXPECT_GE(Final.Instructions, Second.Instructions);
  EXPECT_GE(Second.TimeEnabledNs, First.TimeEnabledNs);
}

TEST(PerfCounters, UnavailableReadingIsWellFormed) {
  // Forge the fallback shape directly so this checks the same
  // invariants on hosts where the backend happens to be live.
  perf::CounterReading Reading;
  EXPECT_FALSE(Reading.Valid);
  EXPECT_EQ(Reading.Cycles, 0u);
  EXPECT_EQ(Reading.ipc(), 0.0);
  EXPECT_EQ(Reading.cyclesPer(1000), 0.0);
  EXPECT_EQ(Reading.instructionsPer(1000), 0.0);
  EXPECT_EQ(Reading.branchMissRate(), 0.0);
  EXPECT_EQ(Reading.cacheMissRate(), 0.0);

  Expected<json::Value> Doc = json::parse(Reading.toJson());
  ASSERT_TRUE(Doc);
  const json::Value *Available = Doc->find("available");
  ASSERT_NE(Available, nullptr);
  EXPECT_TRUE(Available->isBool());
  EXPECT_FALSE(Available->boolean());
  EXPECT_NE(Doc->find("reason"), nullptr);
}

TEST(PerfCounters, StoppedGroupDegradesGracefully) {
  // stop() without start(), and every call on a dead group, must be
  // safe no-ops returning invalid readings — the container contract.
  perf::CounterGroup Group;
  if (Group.live())
    GTEST_SKIP() << "backend live; degradation covered elsewhere";
  Group.start();
  const perf::CounterReading Mid = Group.read();
  const perf::CounterReading End = Group.stop();
  EXPECT_FALSE(Mid.Valid);
  EXPECT_FALSE(End.Valid);
  EXPECT_EQ(End.Instructions, 0u);
}

TEST(PerfCounters, ValidReadingJsonParses) {
  perf::CounterGroup Group;
  if (!Group.live())
    GTEST_SKIP() << "perf_event_open unavailable: "
                 << perf::unavailableReason();

  perf::CounterReading Reading;
  {
    perf::ScopedCounters Scope(Group, Reading);
    spin(100000);
  }
  ASSERT_TRUE(Reading.Valid);
  const Expected<json::Value> Doc = json::parse(Reading.toJson(1000));
  ASSERT_TRUE(Doc);
  EXPECT_GT(Doc->numberOr("instructions", -1), 0.0);
  EXPECT_GE(Doc->numberOr("ipc", -1), 0.0);
  // Units > 0 adds the per-unit metrics.
  EXPECT_NE(Doc->find("cycles_per_unit"), nullptr);
}

TEST(PerfCounters, RecordToTelemetryHandlesBothStates) {
  // Invalid readings must not create counters; valid-shaped ones must.
  telemetry::resetAll();
  telemetry::setEnabled(true);

  perf::CounterReading Invalid;
  perf::recordToTelemetry("test_invalid", Invalid);

  perf::CounterReading Forged;
  Forged.Valid = true;
  Forged.Cycles = 1234;
  Forged.Instructions = 5678;
  perf::recordToTelemetry("test_valid", Forged);

  const std::string Json = telemetry::toJson();
  telemetry::setEnabled(false);
  EXPECT_EQ(Json.find("pmu.test_invalid"), std::string::npos);
  EXPECT_NE(Json.find("pmu.test_valid.cycles"), std::string::npos);
  EXPECT_NE(Json.find("pmu.test_valid.instructions"), std::string::npos);
}

} // namespace
