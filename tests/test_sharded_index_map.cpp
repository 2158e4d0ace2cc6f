//===- tests/test_sharded_index_map.cpp - Concurrent sharded map ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "container/sharded_index_map.h"

#include "core/inference.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "support/json.h"
#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <unordered_map>

using namespace sepe;

namespace {

SynthesizedHash bijectivePext(const std::string &Regex,
                              IsaLevel Isa = IsaLevel::Native) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take(), Isa);
}

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

constexpr const char *SsnRegex = R"(\d{3}-\d{2}-\d{4})";

} // namespace

// --- Shard partition kernel -------------------------------------------------

TEST(ShardPartitionTest, RoutingScrambleIsDecorrelatedFromGroupScramble) {
  // The shard index must not be a function of the in-shard home group:
  // with the same multiplier, every key landing in shard S would be
  // confined to a 1/NumShards slice of that shard's groups. Check that
  // for images that share a shard, the group-scramble high bits spread.
  std::mt19937_64 Rng(7);
  std::vector<uint64_t> SameShard;
  while (SameShard.size() < 64) {
    const uint64_t Image = Rng();
    if (probe::shardOf(Image, 4) == 3)
      SameShard.push_back(Image);
  }
  std::unordered_map<uint64_t, size_t> TopNibbles;
  for (const uint64_t Image : SameShard)
    ++TopNibbles[probe::scramble(Image) >> 60];
  // 64 keys over 16 nibble values: a same-multiplier collapse would put
  // them all in one bucket; decorrelated routing spreads them widely.
  EXPECT_GE(TopNibbles.size(), 8u);
}

TEST(ShardPartitionTest, PartitionEquivalentToPerKeyShardOfAllFormats) {
  // The batch partition is definitionally a stable counting sort by
  // probe::shardOf. Pin that equivalence for every paper format at
  // every ISA level (the images come from the real batch kernels, so a
  // partition/kernel disagreement would surface here), at several shard
  // widths including the degenerate single-shard map.
  for (const PaperKey Key : AllPaperKeys) {
    const FormatSpec Format = paperKeyFormat(Key);
    Expected<HashPlan> Plan =
        synthesize(Format.abstract(), HashFamily::Pext);
    ASSERT_TRUE(Plan) << paperKeyName(Key);
    const HashPlan Taken = Plan.take();
    KeyGenerator Gen(Format, KeyDistribution::Uniform,
                     0x51ab + static_cast<uint64_t>(Key));
    const std::vector<std::string> Keys = Gen.distinct(shard::ChunkSize);
    const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
    for (const IsaLevel Isa :
         {IsaLevel::Native, IsaLevel::NoBitExtract, IsaLevel::Portable}) {
      const SynthesizedHash Hash(Taken, Isa);
      uint64_t Images[shard::ChunkSize];
      Hash.hashBatch(Views.data(), Images, Views.size());
      for (const unsigned Bits : {0u, 2u, 4u, 8u}) {
        uint16_t Order[shard::ChunkSize];
        uint32_t Offsets[256 + 1];
        shard::partitionChunk(Images, Views.size(), Bits, Order, Offsets);
        const size_t NumShards = size_t{1} << Bits;
        ASSERT_EQ(Offsets[0], 0u);
        ASSERT_EQ(Offsets[NumShards], Views.size());
        std::vector<bool> Seen(Views.size(), false);
        for (size_t S = 0; S != NumShards; ++S) {
          for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
            const uint16_t K = Order[I];
            ASSERT_LT(K, Views.size());
            ASSERT_FALSE(Seen[K]) << "index emitted twice";
            Seen[K] = true;
            ASSERT_EQ(probe::shardOf(Images[K], Bits), S)
                << paperKeyName(Key) << " isa " << static_cast<int>(Isa);
            if (I != Offsets[S]) {
              ASSERT_LT(Order[I - 1], K) << "partition must be stable";
            }
          }
        }
      }
    }
  }
}

// --- Single-threaded semantics ----------------------------------------------

TEST(ShardedIndexMapTest, PutGetEraseBasics) {
  ShardedIndexMap<int> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                           /*EpochLabel=*/7, /*ShardCountHint=*/8);
  EXPECT_EQ(Map.shardCount(), 8u);
  EXPECT_EQ(Map.epoch(), 7u);

  EXPECT_TRUE(Map.put("123-45-6789", 1));
  EXPECT_FALSE(Map.put("123-45-6789", 2)) << "first insert wins";
  EXPECT_TRUE(Map.put("000-00-0001", 3));
  EXPECT_EQ(Map.size(), 2u);

  int V = 0;
  ASSERT_TRUE(Map.get("123-45-6789", V));
  EXPECT_EQ(V, 1);
  EXPECT_FALSE(Map.get("999-99-9999", V));
  EXPECT_TRUE(Map.contains("000-00-0001"));

  EXPECT_TRUE(Map.erase("123-45-6789"));
  EXPECT_FALSE(Map.erase("123-45-6789"));
  EXPECT_FALSE(Map.contains("123-45-6789"));
  EXPECT_EQ(Map.size(), 1u);
}

TEST(ShardedIndexMapTest, ShardCountHintRoundsAndClamps) {
  const KeyPattern P = patternOf(SsnRegex);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 1)
                .shardCount(),
            1u);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 5)
                .shardCount(),
            8u);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 1000)
                .shardCount(),
            256u);
}

TEST(ShardedIndexMapTest, BatchOpsMatchScalarOps) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex));
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 777, 0xb);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Values(Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    Values[I] = I * 3 + 1;

  EXPECT_EQ(Map.putBatch(Views.data(), Values.data(), Views.size()),
            Views.size());
  EXPECT_EQ(Map.putBatch(Views.data(), Values.data(), Views.size()), 0u)
      << "re-inserting the same batch";
  EXPECT_EQ(Map.size(), Keys.size());

  std::vector<uint64_t> Out(Keys.size(), ~0ull);
  std::vector<uint8_t> Found(Keys.size(), 0);
  EXPECT_EQ(Map.getBatch(Views.data(), Out.data(), Found.data(),
                         Views.size()),
            Views.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_TRUE(Found[I]);
    ASSERT_EQ(Out[I], Values[I]);
    uint64_t Scalar = 0;
    ASSERT_TRUE(Map.get(Views[I], Scalar));
    ASSERT_EQ(Scalar, Values[I]);
  }

  // Half-erase, then a mixed batch probe sees exactly the survivors.
  for (size_t I = 0; I < Keys.size(); I += 2)
    ASSERT_TRUE(Map.erase(Views[I]));
  EXPECT_EQ(Map.getBatch(Views.data(), Out.data(), Found.data(),
                         Views.size()),
            Keys.size() / 2);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_EQ(Found[I] != 0, I % 2 == 1) << I;
}

TEST(ShardedIndexMapTelemetryTest, BatchHitsAndMissesCoverEveryKey) {
  // getBatch counts once per call: hit + miss equals the keys asked
  // for. The single-key get is a per-key path and counts nothing.
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex));
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 300, 0x7e);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I < Keys.size(); I += 3)
    ASSERT_TRUE(Map.put(Views[I], I));

  telemetry::resetAll();
  telemetry::setEnabled(true);
  std::vector<uint64_t> Out(Keys.size());
  std::vector<uint8_t> Found(Keys.size());
  const size_t Hits =
      Map.getBatch(Views.data(), Out.data(), Found.data(), Views.size());
  uint64_t V = 0;
  for (std::string_view Key : Views)
    (void)Map.get(Key, V);
  telemetry::setEnabled(false);

  const uint64_t Hit = telemetry::counter("sharded_index_map.get.hit").value();
  const uint64_t Miss =
      telemetry::counter("sharded_index_map.get.miss").value();
  EXPECT_EQ(Hit, Hits);
  EXPECT_EQ(Hit, (Keys.size() + 2) / 3);
  EXPECT_EQ(Hit + Miss, Views.size());
}

TEST(ShardedIndexMapTest, EntriesSpreadAcrossShards) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex), 0, 16);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 4096, 0xc);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  size_t Occupied = 0;
  for (size_t S = 0; S != Map.shardCount(); ++S) {
    const auto Stats = Map.shardStats(S);
    if (Stats.Size != 0)
      ++Occupied;
    // No shard should swallow a grossly outsized share (mean is 256).
    EXPECT_LT(Stats.Size, Keys.size() / 4) << "shard " << S;
  }
  EXPECT_EQ(Occupied, Map.shardCount());
}

// --- Labeled and guarded entry points ---------------------------------------

TEST(ShardedIndexMapTest, LabeledProbesValidateEpoch) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<int> Map(Hash, patternOf(SsnRegex), /*EpochLabel=*/3);
  const std::string Key = "123-45-6789";
  const uint64_t Image = Hash(Key);

  bool Inserted = false;
  EXPECT_TRUE(Map.putHashed(Key, Image, 3, 11, Inserted));
  EXPECT_TRUE(Inserted);

  int V = 0;
  EXPECT_EQ(Map.getHashed(Image, 3, V), ProbeResult::Hit);
  EXPECT_EQ(V, 11);
  EXPECT_EQ(Map.getHashed(Hash("999-99-9999"), 3, V), ProbeResult::Miss);

  // Wrong label: nothing probed, nothing written, nothing erased.
  EXPECT_EQ(Map.getHashed(Image, 4, V), ProbeResult::Stale);
  EXPECT_FALSE(Map.putHashed(Key, Image, 4, 12, Inserted));
  bool Erased = true;
  EXPECT_FALSE(Map.eraseHashed(Key, Image, 4, Erased));
  EXPECT_TRUE(Map.contains(Key));

  EXPECT_TRUE(Map.eraseHashed(Key, Image, 3, Erased));
  EXPECT_TRUE(Erased);
  EXPECT_FALSE(Map.contains(Key));
}

TEST(ShardedIndexMapTest, LabeledBatchValidatesEpoch) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/9);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 200, 0xd);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Images(Keys.size());
  Hash.hashBatch(Views.data(), Images.data(), Views.size());
  std::vector<uint64_t> Values(Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    Values[I] = I;

  size_t Inserted = 0;
  EXPECT_FALSE(Map.putBatchHashed(Views.data(), Images.data(),
                                  Values.data(), Views.size(), 8,
                                  Inserted));
  EXPECT_EQ(Map.size(), 0u) << "stale batch insert must write nothing";
  EXPECT_TRUE(Map.putBatchHashed(Views.data(), Images.data(), Values.data(),
                                 Views.size(), 9, Inserted));
  EXPECT_EQ(Inserted, Views.size());

  std::vector<uint64_t> Out(Keys.size());
  std::vector<uint8_t> Found(Keys.size());
  size_t Hits = 0;
  EXPECT_FALSE(Map.getBatchHashed(Images.data(), 8, Out.data(), Found.data(),
                                  Images.size(), Hits));
  EXPECT_TRUE(Map.getBatchHashed(Images.data(), 9, Out.data(), Found.data(),
                                 Images.size(), Hits));
  EXPECT_EQ(Hits, Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_EQ(Out[I], I);
}

TEST(ShardedIndexMapTest, GuardedProbesRejectNonConformingKeys) {
  ShardedIndexMap<int> Map(bijectivePext(SsnRegex), patternOf(SsnRegex));
  bool Inserted = false;
  ASSERT_TRUE(Map.putGuarded("123-45-6789", 5, Inserted));
  EXPECT_TRUE(Inserted);

  int V = 0;
  EXPECT_EQ(Map.getGuarded("123-45-6789", V), ProbeResult::Hit);
  EXPECT_EQ(V, 5);
  EXPECT_EQ(Map.getGuarded("000-00-0000", V), ProbeResult::Miss);
  // Wrong shape: the guard turns it away before any image probe (an
  // image probe with a non-conforming key would be unsound).
  EXPECT_EQ(Map.getGuarded("not-an-ssn!", V), ProbeResult::NotAdmitted);
  EXPECT_FALSE(Map.putGuarded("not-an-ssn!", 6, Inserted));
  bool Erased = false;
  EXPECT_FALSE(Map.eraseGuarded("not-an-ssn!", Erased));
  EXPECT_EQ(Map.size(), 1u);

  ASSERT_TRUE(Map.eraseGuarded("123-45-6789", Erased));
  EXPECT_TRUE(Erased);
}

// --- Migration --------------------------------------------------------------

TEST(ShardedIndexMapTest, MigratePreservesEveryLiveMapping) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 3000, 0xe);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  // Erase a third so the journal holds dead keys the sweep must skip.
  for (size_t I = 0; I < Keys.size(); I += 3)
    Map.erase(Keys[I]);
  const size_t LiveBefore = Map.size();

  // Re-synthesize the same format (a fresh equivalent plan) under a new
  // label: keys scatter to new shards through the new plan's images.
  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex),
              /*NewLabel=*/1);
  EXPECT_EQ(Map.epoch(), 1u);
  EXPECT_EQ(Map.migrations(), 1u);
  EXPECT_EQ(Map.size(), LiveBefore);
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    if (I % 3 == 0) {
      EXPECT_FALSE(Map.get(Keys[I], V)) << "erased key resurrected";
    } else {
      ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
      ASSERT_EQ(V, I);
    }
  }

  // Journals compact to the live keyset as a migration side effect.
  size_t JournalTotal = 0;
  for (size_t S = 0; S != Map.shardCount(); ++S)
    JournalTotal += Map.shardStats(S).JournalLen;
  EXPECT_EQ(JournalTotal, LiveBefore);

  // And a second migration on top of the first works the same.
  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), 2);
  EXPECT_EQ(Map.size(), LiveBefore);
  uint64_t V = 0;
  ASSERT_TRUE(Map.get(Keys[1], V));
  EXPECT_EQ(V, 1u);
}

TEST(ShardedIndexMapTest, MigrateUnderConcurrentTraffic) {
  // The acceptance property, in-process: resident keys must never miss
  // while migrations run under full read/write load. Also the TSan
  // target for the seal + dual-write protocol.
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 2048, 0xf);
  const size_t Resident = Keys.size() / 2;
  for (size_t I = 0; I != Resident; ++I)
    Map.put(Keys[I], I);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> FailedLookups{0};

  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&, T] {
      std::mt19937_64 Rng(100 + T);
      uint64_t Out[shard::ChunkSize];
      uint8_t Found[shard::ChunkSize];
      std::string_view Batch[shard::ChunkSize];
      while (!Stop.load(std::memory_order_relaxed)) {
        // Scalar resident lookups...
        for (int R = 0; R != 32; ++R) {
          const size_t I = Rng() % Resident;
          uint64_t V = ~0ull;
          if (!Map.get(Keys[I], V) || V != I)
            FailedLookups.fetch_add(1, std::memory_order_relaxed);
        }
        // ...and a resident batch, which must fully hit too.
        const size_t Base = Rng() % (Resident - shard::ChunkSize);
        for (size_t I = 0; I != shard::ChunkSize; ++I)
          Batch[I] = Keys[Base + I];
        Map.getBatch(Batch, Out, Found, shard::ChunkSize);
        for (size_t I = 0; I != shard::ChunkSize; ++I)
          if (!Found[I] || Out[I] != Base + I)
            FailedLookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Workers.emplace_back([&] {
    // Churn writer on the non-resident half.
    std::mt19937_64 Rng(55);
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = Resident + Rng() % (Keys.size() - Resident);
      if (Rng() & 1)
        Map.put(Keys[I], I);
      else
        Map.erase(Keys[I]);
    }
  });

  for (uint64_t Label = 1; Label <= 4; ++Label)
    Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), Label);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(FailedLookups.load(), 0u);
  EXPECT_EQ(Map.epoch(), 4u);
  EXPECT_EQ(Map.migrations(), 4u);
  for (size_t I = 0; I != Resident; ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
    ASSERT_EQ(V, I);
  }
}

TEST(ShardedIndexMapTest, NoTornEpochUnderConcurrentMigrations) {
  // Label, hash and pattern live in one published Table: a reader that
  // hashes through hasher() and immediately probes with the epoch it
  // read must either be consistent (Hit) or cleanly told it straddled a
  // swap (Stale) — never a silent wrong-table probe. Detection: each
  // generation G writes value G for a sentinel key; a torn probe would
  // return a value from a different generation than the label claimed.
  // Because getHashed validates the label against the table it probes,
  // a reader whose epoch() and hasher() loads straddle a swap can only
  // get Stale: the label admits the probe only when epoch, hash and
  // shards all came from the same generation (epochs are monotone, so
  // label == active epoch pins the hasher() load to the same table).
  // Hence for an always-present key, Hit-with-the-value and Stale are
  // the only legal outcomes; a Miss or a wrong value is a torn epoch.
  const std::string Sentinel = "271-82-8182";
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex), 0, 4);
  Map.put(Sentinel, 42);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t Epoch = Map.epoch();
        const uint64_t Image = Map.hasher()(Sentinel);
        uint64_t V = ~0ull;
        const ProbeResult R = Map.getHashed(Image, Epoch, V);
        if (R == ProbeResult::Miss ||
            (R == ProbeResult::Hit && V != 42))
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (uint64_t Label = 1; Label != 30; ++Label)
    Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), Label);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_EQ(Torn.load(), 0u);
}

// --- Per-shard contention counters ------------------------------------------

TEST(ShardedIndexMapTest, ContentionCountersTrackAcquisitions) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 0xc0de);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  uint64_t V = 0;
  for (const std::string &Key : Keys)
    EXPECT_TRUE(Map.get(Key, V));

  ShardedIndexMap<uint64_t>::ShardContention Sum;
  for (size_t S = 0; S != Map.shardCount(); ++S) {
    const auto C = Map.shardContention(S);
    Sum.SharedAcquires += C.SharedAcquires;
    Sum.SharedContended += C.SharedContended;
    Sum.UniqueAcquires += C.UniqueAcquires;
    Sum.UniqueContended += C.UniqueContended;
  }
  // One write acquisition per put, one read acquisition per get; a
  // single thread can never lose a try-lock.
  EXPECT_EQ(Sum.UniqueAcquires, Keys.size());
  EXPECT_EQ(Sum.SharedAcquires, Keys.size());
  EXPECT_EQ(Sum.UniqueContended, 0u);
  EXPECT_EQ(Sum.SharedContended, 0u);
}

TEST(ShardedIndexMapTest, ContentionJsonParsesAndSumsMatch) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/7, /*ShardCountHint=*/4);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 32, 0x7e57);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);

  Expected<json::Value> Doc = json::parse(Map.contentionJson());
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->numberOr("epoch", -1), 7.0);
  const json::Value *Shards = Doc->find("shards");
  ASSERT_NE(Shards, nullptr);
  ASSERT_TRUE(Shards->isArray());
  ASSERT_EQ(Shards->array().size(), Map.shardCount());
  double Unique = 0;
  for (const json::Value &Row : Shards->array())
    Unique += Row.numberOr("unique_acquires", 0);
  EXPECT_EQ(Unique, static_cast<double>(Keys.size()));
  const json::Value *Totals = Doc->find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->numberOr("unique_acquires", -1),
            static_cast<double>(Keys.size()));
}

TEST(ShardedIndexMapTest, ContentionResetsWithMigration) {
  // Counters live on the active generation's shards: after a migrate
  // the new epoch starts from (nearly) zero — only the migration's own
  // successor-side dual-write/copy acquisitions are visible.
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/4);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 48, 0x3316);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  uint64_t ReadsBefore = 0;
  uint64_t V = 0;
  for (const std::string &Key : Keys)
    Map.get(Key, V);
  for (size_t S = 0; S != Map.shardCount(); ++S)
    ReadsBefore += Map.shardContention(S).SharedAcquires;
  EXPECT_EQ(ReadsBefore, Keys.size());

  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), /*Epoch=*/1);
  uint64_t ReadsAfter = 0;
  for (size_t S = 0; S != Map.shardCount(); ++S)
    ReadsAfter += Map.shardContention(S).SharedAcquires;
  EXPECT_EQ(ReadsAfter, 0u) << "new generation starts fresh";
}
