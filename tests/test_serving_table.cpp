//===- tests/test_serving_table.cpp - Adaptive sharded serving layer ------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "runtime/serving_table.h"

#include "core/regex_parser.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>

using namespace sepe;

namespace {

constexpr const char *SsnRegex = R"(\d{3}-\d{2}-\d{4})";

KeyPattern patternOf(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  return Spec->abstract();
}

std::vector<std::string> distinctKeys(const std::string &Regex, size_t N,
                                      uint64_t Seed) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, Seed);
  return Gen.distinct(N);
}

/// Deterministic manual-pump options with the bijective family (the
/// fast lane's soundness condition).
AdaptiveOptions servingOptions() {
  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.Cooldown = std::chrono::milliseconds(0);
  Options.DriftWindow = 256;
  return Options;
}

/// Copies of \p Keys driven out of \p Pattern through its drift probe.
std::vector<std::string> driftedCopies(const std::vector<std::string> &Keys,
                                       const KeyPattern &Pattern) {
  const DriftProbe Probe = findDriftProbe(Pattern);
  EXPECT_TRUE(Probe.Valid);
  std::vector<std::string> Out(Keys);
  for (std::string &Key : Out)
    Key[Probe.Pos] = Probe.Byte;
  return Out;
}

} // namespace

TEST(ServingTableTest, FastLaneEngagesForBijectivePlans) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_TRUE(Table.hasFastLane());

  EXPECT_TRUE(Table.put("123-45-6789", 1));
  EXPECT_FALSE(Table.put("123-45-6789", 2)) << "first insert wins";
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("123-45-6789", V));
  EXPECT_EQ(V, 1u);
  EXPECT_FALSE(Table.get("999-99-9999", V));

  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastSize, 1u) << "conforming key belongs in fast lane";
  EXPECT_EQ(Stats.SpillSize, 0u);

  EXPECT_TRUE(Table.erase("123-45-6789"));
  EXPECT_FALSE(Table.erase("123-45-6789"));
  EXPECT_EQ(Table.size(), 0u);
}

TEST(ServingTableTest, SpillLaneServesNonConformingKeys) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_TRUE(Table.put("definitely-not-an-ssn", 7));
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("definitely-not-an-ssn", V));
  EXPECT_EQ(V, 7u);

  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastSize, 0u);
  EXPECT_EQ(Stats.SpillSize, 1u);

  EXPECT_TRUE(Table.erase("definitely-not-an-ssn"));
  EXPECT_EQ(Table.stats().SpillSize, 0u);
}

TEST(ServingTableTest, ColdStartServesFromSpillOnly) {
  // Empty pattern: no generation to synthesize, so every key takes the
  // spill lane until drift sampling infers one.
  ServingTable<uint64_t> Table(KeyPattern{}, servingOptions());
  EXPECT_FALSE(Table.hasFastLane());
  EXPECT_TRUE(Table.put("123-45-6789", 3));
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("123-45-6789", V));
  EXPECT_EQ(V, 3u);
  EXPECT_EQ(Table.stats().SpillSize, 1u);
}

TEST(ServingTableTest, BatchOpsMatchScalarAcrossBothLanes) {
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions());
  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 300, 1);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);

  // Interleave the lanes so every batch chunk mixes admitted and
  // rejected keys.
  std::vector<std::string_view> Views;
  std::vector<uint64_t> Values;
  for (size_t I = 0; I != InFormat.size(); ++I) {
    Views.push_back(InFormat[I]);
    Values.push_back(2 * I);
    Views.push_back(Drifted[I]);
    Values.push_back(2 * I + 1);
  }
  EXPECT_EQ(Table.putBatch(Views.data(), Values.data(), Views.size()),
            Views.size());
  EXPECT_EQ(Table.putBatch(Views.data(), Values.data(), Views.size()), 0u)
      << "re-inserting the same batch";
  EXPECT_EQ(Table.stats().FastSize, InFormat.size());
  EXPECT_EQ(Table.stats().SpillSize, Drifted.size());

  std::vector<uint64_t> Out(Views.size(), ~0ull);
  std::vector<uint8_t> Found(Views.size(), 0);
  EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                           Views.size()),
            Views.size());
  for (size_t I = 0; I != Views.size(); ++I) {
    ASSERT_TRUE(Found[I]) << Views[I];
    ASSERT_EQ(Out[I], Values[I]);
    uint64_t Scalar = 0;
    ASSERT_TRUE(Table.get(Views[I], Scalar));
    ASSERT_EQ(Scalar, Values[I]);
  }
}

TEST(ServingTableTest, DriftSwapMigrateSweepKeepsEveryKeyVisible) {
  // The full lifecycle, deterministically: load both lanes, drive
  // drifted traffic until the detector trips, pump the re-synthesis
  // (pattern join admits the drifted keys), then maintain() — fast
  // lane migrates to the new generation and the sweep pulls the spill
  // keys in. Every key must be visible with the right value at every
  // step.
  const KeyPattern Pattern = patternOf(SsnRegex);
  AdaptiveOptions Options = servingOptions();
  ServingTable<uint64_t> Table(Pattern, Options, /*ShardCountHint=*/8);
  ASSERT_TRUE(Table.hasFastLane());

  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 512, 2);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);
  for (size_t I = 0; I != InFormat.size(); ++I) {
    Table.put(InFormat[I], I);
    Table.put(Drifted[I], InFormat.size() + I);
  }
  EXPECT_EQ(Table.stats().SpillSize, Drifted.size());

  // Drifted lookups are guard misses: they feed the sampler and trip
  // the drift window.
  for (int Round = 0; Round != 8; ++Round)
    for (size_t I = 0; I != Drifted.size(); ++I) {
      uint64_t V = 0;
      ASSERT_TRUE(Table.get(Drifted[I], V)) << "pre-swap spill lookup";
      ASSERT_EQ(V, InFormat.size() + I);
    }
  ASSERT_TRUE(Table.adaptive().resynthesisPending());
  if (!Table.adaptive().pumpResynthesis())
    GTEST_SKIP() << "joined pattern did not synthesize; lifecycle not "
                    "exercisable for this format";
  const uint64_t NewEpoch = Table.adaptive().epoch();
  EXPECT_EQ(NewEpoch, 1u);

  // Between swap and maintain: fast lane still labeled with the old
  // epoch, every lookup still correct (labeled probes go Stale and
  // redo guarded).
  uint64_t V = 0;
  ASSERT_TRUE(Table.get(InFormat[0], V));
  EXPECT_EQ(V, 0u);

  ASSERT_TRUE(Table.maintain());
  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastEpoch, NewEpoch) << "fast lane migrated";
  EXPECT_GE(Stats.Migrations, 1u);
  if (Table.adaptive().pattern().matches(Drifted[0])) {
    EXPECT_EQ(Stats.SpillSize, 0u)
        << "widened pattern admits the drifted keys: sweep moves them";
    EXPECT_EQ(Stats.FastSize, InFormat.size() + Drifted.size());
    EXPECT_GE(Stats.SweptKeys, Drifted.size());
  }

  for (size_t I = 0; I != InFormat.size(); ++I) {
    ASSERT_TRUE(Table.get(InFormat[I], V)) << InFormat[I];
    ASSERT_EQ(V, I);
    ASSERT_TRUE(Table.get(Drifted[I], V)) << Drifted[I];
    ASSERT_EQ(V, InFormat.size() + I);
  }

  // maintain() with nothing to do reports no work.
  EXPECT_FALSE(Table.maintain());
}

namespace {

/// One pass over every ServingTable entry point: batch puts of
/// in-format and drifted keys, batch and single-key gets (the drifted
/// gets trip the drift window), a pumped re-synthesis and maintain()
/// (migration and spill sweep), a static seal, and erases.
void runServingCycle(uint64_t Seed) {
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions(),
                               /*ShardCountHint=*/8);
  const std::vector<std::string> InFormat =
      distinctKeys(SsnRegex, 512, Seed);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);
  std::vector<std::string_view> Views(InFormat.begin(), InFormat.end());
  Views.insert(Views.end(), Drifted.begin(), Drifted.end());
  std::vector<uint64_t> Values(Views.size());
  std::iota(Values.begin(), Values.end(), uint64_t{0});
  ASSERT_EQ(Table.putBatch(Views.data(), Values.data(), Views.size()),
            Views.size());

  std::vector<uint64_t> Out(Views.size());
  std::vector<uint8_t> Found(Views.size());
  EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                           Views.size()),
            Views.size());
  uint64_t V = 0;
  for (std::string_view Key : Views)
    EXPECT_TRUE(Table.get(Key, V)) << Key;
  (void)Table.adaptive().pumpResynthesis();
  (void)Table.maintain();
  EXPECT_EQ(Table.sealStatic(Views), Views.size());
  EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                           Views.size()),
            Views.size());
  EXPECT_TRUE(Table.erase(Views.front()));
  EXPECT_TRUE(Table.erase(Views.back()));
  (void)Table.maintain();
}

} // namespace

TEST(ServingTableObservabilityTest, DisabledPlanesRegisterAndEmitNothing) {
  // Both runtime gates off: a full cycle leaves the metric registry
  // and the flight recorder exactly as they were.
  ASSERT_FALSE(telemetry::enabled());
  ASSERT_FALSE(trace::enabled());
  const std::string RegistryBefore = telemetry::toJson();
  const uint64_t EmittedBefore = trace::emitted();
  runServingCycle(5);
  EXPECT_EQ(telemetry::toJson(), RegistryBefore);
  EXPECT_EQ(trace::emitted(), EmittedBefore);

  // The same cycle with both gates on does record, so the check above
  // can see a site that runs.
  telemetry::setEnabled(true);
  trace::setEnabled(true);
  runServingCycle(5);
  telemetry::setEnabled(false);
  trace::setEnabled(false);
  EXPECT_NE(telemetry::toJson(), RegistryBefore);
  EXPECT_GT(trace::emitted(), EmittedBefore);
  (void)trace::drain();
}

TEST(ServingTableTest, HotSwapUnderConcurrentTrafficLosesNoLookups) {
  // The acceptance criterion, in-process (and the TSan target): client
  // threads hammer both lanes while the main thread drives drift ->
  // swap -> migrate -> sweep. Resident keys must hit with the right
  // value on every probe, through every phase.
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions(),
                               /*ShardCountHint=*/8);
  ASSERT_TRUE(Table.hasFastLane());

  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 1024, 3);
  const size_t Resident = Keys.size() / 2;
  const std::vector<std::string> Drifted = driftedCopies(
      std::vector<std::string>(Keys.begin(), Keys.begin() + Resident),
      Pattern);
  for (size_t I = 0; I != Resident; ++I) {
    Table.put(Keys[I], I);
    Table.put(Drifted[I], Resident + I);
  }

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> FailedLookups{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&, T] {
      std::mt19937_64 Rng(200 + T);
      while (!Stop.load(std::memory_order_relaxed)) {
        const size_t I = Rng() % Resident;
        uint64_t V = ~0ull;
        if (!Table.get(Keys[I], V) || V != I)
          FailedLookups.fetch_add(1, std::memory_order_relaxed);
        if (!Table.get(Drifted[I], V) || V != Resident + I)
          FailedLookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Workers.emplace_back([&] {
    // Churn writer on the non-resident half of the in-format pool.
    std::mt19937_64 Rng(77);
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = Resident + Rng() % (Keys.size() - Resident);
      if (Rng() & 1)
        Table.put(Keys[I], I);
      else
        Table.erase(Keys[I]);
    }
  });

  // Main thread: drive the lifecycle several times while traffic runs.
  for (int Round = 0; Round != 3; ++Round) {
    if (Table.adaptive().resynthesisPending())
      Table.adaptive().pumpResynthesis();
    Table.maintain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(FailedLookups.load(), 0u);
  if (Table.adaptive().resynthesisPending())
    Table.adaptive().pumpResynthesis();
  Table.maintain();
  for (size_t I = 0; I != Resident; ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
    ASSERT_TRUE(Table.get(Drifted[I], V));
    ASSERT_EQ(V, Resident + I);
  }
}

TEST(ServingTableStaticTest, SealStaticServesSealedKeysExactly) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 500, 11);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);

  EXPECT_FALSE(Table.staticLaneActive());
  EXPECT_EQ(Table.sealStatic(Views), Keys.size());
  ASSERT_TRUE(Table.staticLaneActive());
  const auto Stats = Table.stats();
  EXPECT_TRUE(Stats.StaticActive);
  EXPECT_EQ(Stats.StaticSize, Keys.size());

  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V)) << Keys[I];
    ASSERT_EQ(V, I);
  }
  // Out-of-set keys must miss: the exact key compare catches any
  // fingerprint false positive, so the static lane never serves a
  // wrong value.
  const std::vector<std::string> Absent = distinctKeys(SsnRegex, 500, 12);
  for (const std::string &Key : Absent) {
    uint64_t V = 0;
    bool InSealed = false;
    for (const std::string &K : Keys)
      InSealed |= K == Key;
    if (!InSealed) {
      EXPECT_FALSE(Table.get(Key, V)) << Key;
    }
  }

  // The batch path runs through the MPHF's fused base kernels; it must
  // agree with scalar gets.
  std::vector<uint64_t> Out(Views.size(), ~0ull);
  std::vector<uint8_t> Found(Views.size(), 0);
  EXPECT_EQ(
      Table.getBatch(Views.data(), Out.data(), Found.data(), Views.size()),
      Views.size());
  for (size_t I = 0; I != Views.size(); ++I) {
    ASSERT_TRUE(Found[I]) << Views[I];
    ASSERT_EQ(Out[I], I);
  }
}

TEST(ServingTableStaticTest, SealSnapshotsPresentSubsetAcrossBothLanes) {
  // The seal list may name absent keys (skipped) and spill-lane keys
  // (sealed like any present key: the MPHF's raw-byte fallback handles
  // out-of-format keys).
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 100, 21);
  for (size_t I = 0; I != InFormat.size(); ++I)
    Table.put(InFormat[I], I);
  Table.put("not-an-ssn-at-all", 777);

  std::vector<std::string_view> SealList(InFormat.begin(), InFormat.end());
  SealList.push_back("not-an-ssn-at-all");
  SealList.push_back("999-99-9999"); // Never inserted.
  EXPECT_EQ(Table.sealStatic(SealList), InFormat.size() + 1);
  EXPECT_EQ(Table.stats().StaticSize, InFormat.size() + 1);

  uint64_t V = 0;
  ASSERT_TRUE(Table.get("not-an-ssn-at-all", V));
  EXPECT_EQ(V, 777u);
  EXPECT_FALSE(Table.get("999-99-9999", V));

  // New puts miss the sealed lane but are served by the dynamic lanes;
  // the lane stays valid because put never overwrites a present key.
  EXPECT_TRUE(Table.put("999-99-9999", 42));
  EXPECT_TRUE(Table.staticLaneActive());
  ASSERT_TRUE(Table.get("999-99-9999", V));
  EXPECT_EQ(V, 42u);
  EXPECT_FALSE(Table.put(InFormat[0], 1000)) << "first insert still wins";
  ASSERT_TRUE(Table.get(InFormat[0], V));
  EXPECT_EQ(V, 0u);
}

/// One key of a mixed batch and the value get() must find for it
/// (absent keys: none).
struct Probe {
  std::string Key;
  bool Present;
  uint64_t Value;
};

/// getBatch over all of \p Probes in one call must agree with get() and
/// with the expected contents, key by key.
void expectBatchMatchesGet(const ServingTable<uint64_t> &Table,
                           const std::vector<Probe> &Probes) {
  std::vector<std::string_view> Views;
  for (const Probe &P : Probes)
    Views.push_back(P.Key);
  std::vector<uint64_t> Out(Views.size(), ~0ull);
  std::vector<uint8_t> Found(Views.size(), 2);
  const size_t Hits =
      Table.getBatch(Views.data(), Out.data(), Found.data(), Views.size());
  size_t Present = 0;
  for (size_t I = 0; I != Probes.size(); ++I) {
    const Probe &P = Probes[I];
    uint64_t V = ~0ull;
    const bool Hit = Table.get(P.Key, V);
    ASSERT_EQ(Hit, P.Present) << P.Key;
    ASSERT_EQ(Found[I], Hit ? 1 : 0) << P.Key;
    if (Hit) {
      ASSERT_EQ(V, P.Value) << P.Key;
      ASSERT_EQ(Out[I], P.Value) << P.Key;
      ++Present;
    }
  }
  EXPECT_EQ(Hits, Present);
}

/// A sealed SSN table whose batches mix sealed hits, absent keys,
/// spill-only keys and puts made after the seal; \p Extra keys are put
/// and sealed with the SSNs (a mixed-length lane when they are not 11
/// bytes). The probe list outnumbers RouteBlock (256) and is shuffled,
/// so every block of the batch holds all four kinds.
void checkSealedBatchAgreesWithGet(const std::vector<std::string> &Extra) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Ssns = distinctKeys(SsnRegex, 700, 71);
  std::vector<Probe> Probes;
  std::vector<std::string_view> SealList;
  for (size_t I = 0; I != 400; ++I) {
    Table.put(Ssns[I], I);
    Probes.push_back({Ssns[I], true, I});
    SealList.push_back(Ssns[I]);
  }
  for (size_t I = 0; I != Extra.size(); ++I) {
    Table.put(Extra[I], 500 + I);
    Probes.push_back({Extra[I], true, 500 + I});
    SealList.push_back(Extra[I]);
  }
  // Spill-only: out-of-format copies of other SSNs, put but not sealed.
  const std::vector<std::string> Drifted = driftedCopies(
      std::vector<std::string>(Ssns.begin() + 600, Ssns.end()),
      patternOf(SsnRegex));
  std::set<std::string> Spilled(Drifted.begin(), Drifted.end());
  uint64_t SpillValue = 1000;
  for (const std::string &Key : Spilled) {
    ASSERT_TRUE(Table.put(Key, SpillValue));
    Probes.push_back({Key, true, SpillValue++});
  }
  ASSERT_EQ(Table.sealStatic(SealList), SealList.size());
  ASSERT_TRUE(Table.staticLaneActive());
  for (size_t I = 400; I != 500; ++I) {
    ASSERT_TRUE(Table.put(Ssns[I], 2000 + I)); // After the seal.
    Probes.push_back({Ssns[I], true, 2000 + I});
  }
  for (size_t I = 500; I != 600; ++I)
    Probes.push_back({Ssns[I], false, 0}); // Never put.
  ASSERT_GT(Probes.size(), 2 * size_t{256});
  std::shuffle(Probes.begin(), Probes.end(), std::mt19937_64(72));
  // A static-lane miss falls through to the dynamic lanes, which hold
  // every key too, so only the hit counter shows that the static lane
  // served each sealed key — once in getBatch and once in get().
  const bool WasEnabled = telemetry::enabled();
  telemetry::setEnabled(true);
  telemetry::Counter &StaticHits =
      telemetry::counter("serving_table.static.hit");
  const uint64_t HitsBefore = StaticHits.value();
  expectBatchMatchesGet(Table, Probes);
  EXPECT_EQ(StaticHits.value() - HitsBefore, 2 * SealList.size());
  telemetry::setEnabled(WasEnabled);
  EXPECT_TRUE(Table.staticLaneActive());
}

TEST(ServingTableStaticTest, BatchAgreesWithGetOnAUniformLengthLane) {
  checkSealedBatchAgreesWithGet({});
}

TEST(ServingTableStaticTest, BatchAgreesWithGetOnAMixedLengthLane) {
  checkSealedBatchAgreesWithGet({"not-an-ssn-at-all", "x", "12-34"});
}

TEST(ServingTableStaticTest, KeysOfUnsealedLengthsSkipTheStaticLane) {
  // An SSN lane is imaged through the fast lane's 11-byte plan, whose
  // loads assume 11 bytes. Shorter probes, each in a heap buffer of
  // exactly its length, must miss without reaching it — in get,
  // getBatch and erase. (ASan sees such an overread with SEPE_JIT=0;
  // JIT code is not instrumented.)
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 81);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());

  std::vector<std::unique_ptr<char[]>> Buffers;
  std::vector<std::string_view> Short;
  for (size_t Len = 1; Len != 11; ++Len) {
    Buffers.push_back(std::make_unique<char[]>(Len));
    std::memcpy(Buffers.back().get(), Keys[Len].data(), Len);
    Short.emplace_back(Buffers.back().get(), Len);
  }
  uint64_t V = 0;
  for (std::string_view Key : Short)
    EXPECT_FALSE(Table.get(Key, V)) << Key;
  std::vector<uint64_t> Out(Short.size());
  std::vector<uint8_t> Found(Short.size(), 2);
  EXPECT_EQ(Table.getBatch(Short.data(), Out.data(), Found.data(),
                           Short.size()),
            0u);
  for (uint8_t F : Found)
    EXPECT_EQ(F, 0);
  EXPECT_FALSE(Table.erase(Short[3]));
  EXPECT_TRUE(Table.staticLaneActive());
}

TEST(ServingTableStaticTest, SealFailsWhenAKeyDoesNotFitARecord) {
  // A record stores the key length in 16 bits: a 70000-byte key cannot
  // be sealed, so the seal fails as a whole and the dynamic lanes keep
  // serving every key, the long one included.
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 61);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  const std::string Long(70000, '7');
  ASSERT_TRUE(Table.put(Long, 4242));
  Views.push_back(Long);

  const bool WasEnabled = telemetry::enabled();
  telemetry::setEnabled(true);
  telemetry::Counter &SealFailed =
      telemetry::counter("serving_table.static.seal_failed");
  const uint64_t FailedBefore = SealFailed.value();
  EXPECT_EQ(Table.sealStatic(Views), 0u);
  EXPECT_EQ(SealFailed.value(), FailedBefore + 1);
  telemetry::setEnabled(WasEnabled);
  EXPECT_FALSE(Table.staticLaneActive());

  uint64_t V = 0;
  ASSERT_TRUE(Table.get(Long, V));
  EXPECT_EQ(V, 4242u);
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
  }

  // Without the long key the same list seals.
  Views.pop_back();
  EXPECT_EQ(Table.sealStatic(Views), Keys.size());
  ASSERT_TRUE(Table.get(Long, V));
  EXPECT_EQ(V, 4242u);
}

TEST(ServingTableStaticTest, LargeSealWithoutAFastLaneServesEveryKey) {
  // URL1's Pext plan is not bijective, so the table has no fast lane and
  // putBatch reserves the spill shards for the whole batch up front.
  // 2^16 keys are enough for sealStatic's gather and the static lane's
  // layout passes to split across workers.
  ServingTable<uint64_t> Table(paperKeyFormat(PaperKey::URL1).abstract(),
                               servingOptions());
  ASSERT_FALSE(Table.hasFastLane());
  KeyGenerator Gen(paperKeyFormat(PaperKey::URL1), KeyDistribution::Uniform,
                   71);
  const std::vector<std::string> All = Gen.distinct((size_t{1} << 16) + 512);
  const std::vector<std::string> Keys(All.begin(), All.end() - 512);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Values(Keys.size());
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = I * 5 + 3;
  EXPECT_EQ(Table.putBatch(Views.data(), Values.data(), Views.size()),
            Keys.size());
  EXPECT_EQ(Table.stats().SpillSize, Keys.size());
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());
  ASSERT_TRUE(Table.staticLaneActive());

  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Views[I], V)) << Views[I];
    ASSERT_EQ(V, Values[I]) << Views[I];
  }
  std::vector<uint64_t> Out(Views.size(), ~0ull);
  std::vector<uint8_t> Found(Views.size(), 0);
  EXPECT_EQ(
      Table.getBatch(Views.data(), Out.data(), Found.data(), Views.size()),
      Views.size());
  for (size_t I = 0; I != Views.size(); ++I) {
    ASSERT_TRUE(Found[I]) << Views[I];
    ASSERT_EQ(Out[I], Values[I]) << Views[I];
  }
  for (size_t I = All.size() - 512; I != All.size(); ++I) {
    uint64_t V = 0;
    EXPECT_FALSE(Table.get(All[I], V)) << All[I];
  }
}

TEST(ServingTableStaticTest, EraseOfSealedKeyInvalidatesTheLane) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 31);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());

  // Erasing a non-sealed key leaves the lane up.
  Table.put("111-11-1111", 99);
  if (Keys.end() == std::find(Keys.begin(), Keys.end(), "111-11-1111")) {
    EXPECT_TRUE(Table.erase("111-11-1111"));
    EXPECT_TRUE(Table.staticLaneActive());
  }

  // Erasing a sealed key must tear the lane down before erase returns:
  // a stale values[mphf(key)] copy may never be served.
  EXPECT_TRUE(Table.erase(Keys[0]));
  EXPECT_FALSE(Table.staticLaneActive());
  uint64_t V = 0;
  EXPECT_FALSE(Table.get(Keys[0], V));
  for (size_t I = 1; I != Keys.size(); ++I) {
    ASSERT_TRUE(Table.get(Keys[I], V)) << "dynamic lanes keep serving";
    ASSERT_EQ(V, I);
  }

  // Re-seal after the erase: one fewer key, and serving resumes.
  EXPECT_EQ(Table.sealStatic(Views), Keys.size() - 1);
  EXPECT_TRUE(Table.staticLaneActive());
}

TEST(ServingTableStaticTest, DropStaticAndEmptySealAreBenign) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_EQ(Table.sealStatic(nullptr, 0), 0u) << "empty seal list";
  EXPECT_FALSE(Table.staticLaneActive());

  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 32, 41);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  EXPECT_EQ(Table.sealStatic(Views), 0u) << "nothing present yet";

  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());
  Table.dropStatic();
  EXPECT_FALSE(Table.staticLaneActive());
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
  }
}

TEST(ServingTableStaticTest, ConcurrentReadersSurviveSealAndDropCycles) {
  // TSan target: readers hammer sealed keys while the main thread
  // seals, drops, and re-seals. Every lookup must hit with the right
  // value regardless of which lane serves it — the retired-storage
  // discipline means a reader mid-probe on a dropped lane is safe.
  // Absent keys ride along in every batch, so the residue path (static
  // miss, then the dynamic batch path) races the seals and drops too.
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> All = distinctKeys(SsnRegex, 320, 51);
  const std::vector<std::string> Keys(All.begin(), All.begin() + 256);
  const std::vector<std::string> Absent(All.begin() + 256, All.end());
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Failed{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&, T] {
      std::mt19937_64 Rng(300 + T);
      uint64_t Batch[16];
      uint8_t Found[16];
      std::string_view Probe[16];
      while (!Stop.load(std::memory_order_relaxed)) {
        const size_t I = Rng() % Keys.size();
        uint64_t V = ~0ull;
        if (!Table.get(Keys[I], V) || V != I)
          Failed.fetch_add(1, std::memory_order_relaxed);
        if (Table.get(Absent[I % Absent.size()], V))
          Failed.fetch_add(1, std::memory_order_relaxed);
        // Every fourth slot asks for an absent key.
        for (size_t J = 0; J != 16; ++J)
          Probe[J] = J % 4 == 3 ? std::string_view(Absent[(I + J) %
                                                          Absent.size()])
                                : std::string_view(Keys[(I + J) %
                                                        Keys.size()]);
        if (Table.getBatch(Probe, Batch, Found, 16) != 12)
          Failed.fetch_add(1, std::memory_order_relaxed);
        for (size_t J = 0; J != 16; ++J)
          if (Found[J] != (J % 4 == 3 ? 0 : 1) ||
              (Found[J] && Batch[J] != (I + J) % Keys.size()))
            Failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int Round = 0; Round != 20; ++Round) {
    ASSERT_EQ(Table.sealStatic(Views), Keys.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Table.dropStatic();
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_EQ(Failed.load(), 0u);
}
