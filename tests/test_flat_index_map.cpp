//===- tests/test_flat_index_map.cpp - Learned-index style map ------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "container/flat_index_map.h"

#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>

using namespace sepe;

namespace {

SynthesizedHash bijectiveHash(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take());
}

TEST(BijectionFlagTest, SetForSmallPextFormats) {
  for (const char *Regex :
       {R"(\d{3}-\d{2}-\d{4})", R"([0-9]{16})", R"([0-9a-f]{8}--------)"}) {
    Expected<FormatSpec> Spec = parseRegex(Regex);
    ASSERT_TRUE(Spec);
    Expected<HashPlan> Plan =
        synthesize(Spec->abstract(), HashFamily::Pext);
    ASSERT_TRUE(Plan);
    EXPECT_TRUE(Plan->Bijective) << Regex;
  }
}

TEST(BijectionFlagTest, ClearForWideOrUnmixedFormats) {
  // INTS has 400 free bits; OffXor never proves injectivity.
  Expected<FormatSpec> Ints = parseRegex(R"([0-9]{100})");
  ASSERT_TRUE(Ints);
  Expected<HashPlan> IntsPlan =
      synthesize(Ints->abstract(), HashFamily::Pext);
  ASSERT_TRUE(IntsPlan);
  EXPECT_FALSE(IntsPlan->Bijective);

  Expected<FormatSpec> Ssn = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Ssn);
  Expected<HashPlan> OffXorPlan =
      synthesize(Ssn->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(OffXorPlan);
  EXPECT_FALSE(OffXorPlan->Bijective);
}

TEST(BijectionFlagTest, PaperClaimMacAndIpv6AreNotBijections) {
  // 96 and 256 free bits: the flag must stay off even though measured
  // collisions are zero.
  for (PaperKey Key : {PaperKey::MAC, PaperKey::IPv6}) {
    Expected<HashPlan> Plan =
        synthesize(paperKeyFormat(Key).abstract(), HashFamily::Pext);
    ASSERT_TRUE(Plan);
    EXPECT_FALSE(Plan->Bijective) << paperKeyName(Key);
  }
}

TEST(FlatIndexMapTest, InsertFindEraseBasics) {
  FlatIndexMap<int> Map(bijectiveHash(R"(\d{3}-\d{2}-\d{4})"));
  EXPECT_TRUE(Map.empty());
  EXPECT_TRUE(Map.insert("123-45-6789", 1));
  EXPECT_FALSE(Map.insert("123-45-6789", 2)) << "duplicate insert";
  EXPECT_TRUE(Map.insert("000-00-0001", 3));
  EXPECT_EQ(Map.size(), 2u);

  ASSERT_NE(Map.find("123-45-6789"), nullptr);
  EXPECT_EQ(*Map.find("123-45-6789"), 1) << "first insert wins";
  EXPECT_EQ(Map.find("999-99-9999"), nullptr);

  EXPECT_TRUE(Map.erase("123-45-6789"));
  EXPECT_FALSE(Map.erase("123-45-6789"));
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_FALSE(Map.contains("123-45-6789"));
  EXPECT_TRUE(Map.contains("000-00-0001"));
}

TEST(FlatIndexMapTest, GrowsUnderLoad) {
  FlatIndexMap<uint64_t> Map(bijectiveHash(R"([0-9]{9})"), 16);
  KeyGenerator Gen(*parseRegex(R"([0-9]{9})"), KeyDistribution::Uniform,
                   91);
  const std::vector<std::string> Keys = Gen.distinct(20000);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_TRUE(Map.insert(Keys[I], I));
  EXPECT_EQ(Map.size(), Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    const uint64_t *Value = Map.find(Keys[I]);
    ASSERT_NE(Value, nullptr) << Keys[I];
    EXPECT_EQ(*Value, I);
  }
}

TEST(FlatIndexMapTest, IncrementalKeysHaveShortProbes) {
  // The pext image of consecutive keys is a bijection but not monotone
  // (nibbles pack little-endian); the Fibonacci slot mapping must still
  // keep probe sequences short at 50% load.
  FlatIndexMap<int> Map(bijectiveHash(R"([0-9]{9})"), 4096);
  KeyGenerator Gen(*parseRegex(R"([0-9]{9})"),
                   KeyDistribution::Incremental, 0);
  for (int I = 0; I != 2000; ++I)
    Map.insert(Gen.next(), I);
  EXPECT_LE(Map.maxProbeLength(), 24u)
      << "slot mapping must break up incremental-key clusters";
}

TEST(FlatIndexMapTest, DifferentialAgainstStdMap) {
  // Random insert/erase/find interleaving, mirrored against std::map.
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{6}xy)");
  FlatIndexMap<int> Map(Hash);
  std::map<std::string, int> Reference;
  Expected<FormatSpec> Spec = parseRegex(R"([0-9]{6}xy)");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 555);
  const std::vector<std::string> Pool = Gen.distinct(300);
  std::mt19937_64 Rng(556);
  for (int Step = 0; Step != 20000; ++Step) {
    const std::string &Key = Pool[Rng() % Pool.size()];
    switch (Rng() % 3) {
    case 0: {
      const int Value = static_cast<int>(Rng() % 1000);
      const bool InsertedRef = Reference.emplace(Key, Value).second;
      EXPECT_EQ(Map.insert(Key, Value), InsertedRef) << Step;
      break;
    }
    case 1:
      EXPECT_EQ(Map.erase(Key), Reference.erase(Key) == 1) << Step;
      break;
    default: {
      const auto It = Reference.find(Key);
      const int *Found = Map.find(Key);
      EXPECT_EQ(Found != nullptr, It != Reference.end()) << Step;
      if (Found != nullptr && It != Reference.end()) {
        EXPECT_EQ(*Found, It->second) << Step;
      }
      break;
    }
    }
    EXPECT_EQ(Map.size(), Reference.size());
  }
}

TEST(FlatIndexMapTest, EraseBackwardShiftKeepsClusterReachable) {
  // Construct a probing cluster, erase in the middle, and verify the
  // displaced entries are still found.
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{4}zzzz)");
  FlatIndexMap<int> Map(Hash, 8192);
  // Consecutive numeric keys occupy consecutive slots: a guaranteed
  // cluster.
  Expected<FormatSpec> Spec = parseRegex(R"([0-9]{4}zzzz)");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Incremental, 0);
  std::vector<std::string> Keys;
  for (int I = 0; I != 64; ++I)
    Keys.push_back(Gen.next());
  for (int I = 0; I != 64; ++I)
    Map.insert(Keys[static_cast<size_t>(I)], I);
  for (int I = 10; I != 20; ++I)
    EXPECT_TRUE(Map.erase(Keys[static_cast<size_t>(I)]));
  for (int I = 0; I != 64; ++I) {
    const bool Erased = I >= 10 && I < 20;
    EXPECT_EQ(Map.contains(Keys[static_cast<size_t>(I)]), !Erased) << I;
  }
}

TEST(FlatIndexMapTest, PreHashedEntryPointsMatchPlain) {
  // The *Hashed entry points take the bijection image directly; with
  // Image == hasher()(Key) they must agree with the string overloads.
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{6}xy)");
  FlatIndexMap<int> Map(Hash);
  Expected<FormatSpec> Spec = parseRegex(R"([0-9]{6}xy)");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 808);
  const std::vector<std::string> Keys = Gen.distinct(200);
  for (size_t I = 0; I != Keys.size(); ++I) {
    const uint64_t Image = Map.hasher()(Keys[I]);
    EXPECT_TRUE(Map.insertHashed(Image, static_cast<int>(I)));
    EXPECT_FALSE(Map.insertHashed(Image, -1)) << "duplicate image";
  }
  for (size_t I = 0; I != Keys.size(); ++I) {
    const uint64_t Image = Map.hasher()(Keys[I]);
    ASSERT_NE(Map.find(Keys[I]), nullptr);
    EXPECT_EQ(*Map.find(Keys[I]), static_cast<int>(I))
        << "string lookup sees pre-hashed insert";
    ASSERT_NE(Map.findHashed(Image), nullptr);
    EXPECT_EQ(Map.findHashed(Image), Map.find(Keys[I]));
    EXPECT_TRUE(Map.containsHashed(Image));
  }
  for (size_t I = 0; I < Keys.size(); I += 2)
    EXPECT_TRUE(Map.eraseHashed(Map.hasher()(Keys[I])));
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Map.contains(Keys[I]), I % 2 == 1);
}

TEST(SwissGroupTest, SimdAndScalarMatchersAgree) {
  // The SSE2 group matchers and the portable bit-twiddling fallback
  // must report identical candidate masks for any control-byte pattern:
  // full tags (0..127), empty (-128), and tombstones (-2).
  std::mt19937_64 Rng(0x5155);
  for (int Trial = 0; Trial != 2000; ++Trial) {
    alignas(16) int8_t Ctrl[swiss::GroupSize];
    for (int8_t &C : Ctrl) {
      switch (Rng() % 4) {
      case 0:
        C = swiss::CtrlEmpty;
        break;
      case 1:
        C = swiss::CtrlDeleted;
        break;
      default:
        C = static_cast<int8_t>(Rng() % 128);
        break;
      }
    }
    const int8_t Tag = static_cast<int8_t>(Rng() % 128);
    EXPECT_EQ(swiss::matchTag(Ctrl, Tag),
              swiss::matchTagScalar(Ctrl, Tag));
    EXPECT_EQ(swiss::matchEmpty(Ctrl), swiss::matchEmptyScalar(Ctrl));
    EXPECT_EQ(swiss::matchEmptyOrDeleted(Ctrl),
              swiss::matchEmptyOrDeletedScalar(Ctrl));
  }
}

TEST(FlatIndexMapTest, RehashKeepsPreHashedEntriesReachable) {
  // Regression for the control-byte migration: entries inserted through
  // the pre-hashed entry points must survive growth rehashes (triggered
  // by load) and explicit reserve() — both rebuild the control array
  // from the stored images.
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{9})");
  FlatIndexMap<uint64_t> Map(Hash, 16);
  KeyGenerator Gen(*parseRegex(R"([0-9]{9})"), KeyDistribution::Uniform,
                   4242);
  const std::vector<std::string> Keys = Gen.distinct(5000);
  std::vector<uint64_t> Images;
  for (const std::string &K : Keys)
    Images.push_back(Hash(K));

  const size_t Initial = Map.capacity();
  for (size_t I = 0; I != Images.size(); ++I) {
    ASSERT_TRUE(Map.insertHashed(Images[I], I));
    // Every entry inserted so far stays reachable across each growth.
    if ((I & 1023) == 1023) {
      for (size_t J = 0; J <= I; J += 97)
        ASSERT_NE(Map.findHashed(Images[J]), nullptr) << I << "/" << J;
    }
  }
  EXPECT_GT(Map.capacity(), Initial) << "test must exercise growth";

  // An explicit rehash via reserve must also keep everything.
  Map.reserve(4 * Keys.size());
  for (size_t I = 0; I != Images.size(); ++I) {
    const uint64_t *Value = Map.findHashed(Images[I]);
    ASSERT_NE(Value, nullptr) << I;
    EXPECT_EQ(*Value, I);
    EXPECT_TRUE(Map.contains(Keys[I])) << "string lookup after rehash";
  }
}

TEST(FlatIndexMapTest, ReservePreallocatesForInsertions) {
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{9})");
  FlatIndexMap<int> Map(Hash, 16);
  Map.reserve(10000);
  const size_t Reserved = Map.capacity();
  EXPECT_GE(Reserved * 7, 10000u * 8) << "7/8 load bound";

  KeyGenerator Gen(*parseRegex(R"([0-9]{9})"), KeyDistribution::Uniform,
                   777);
  const std::vector<std::string> Keys = Gen.distinct(10000);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_TRUE(Map.insert(Keys[I], static_cast<int>(I)));
  EXPECT_EQ(Map.capacity(), Reserved)
      << "reserve must preallocate all growth";
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_TRUE(Map.contains(Keys[I]));
}

TEST(FlatIndexMapTest, TombstoneChurnStaysBoundedAndCorrect) {
  // Insert/erase churn over a fixed pool accumulates tombstones; the
  // same-capacity rehash sweep must reclaim them instead of growing the
  // table forever, and lookups must stay exact throughout.
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{6}xy)");
  FlatIndexMap<int> Map(Hash);
  Expected<FormatSpec> Spec = parseRegex(R"([0-9]{6}xy)");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 321);
  const std::vector<std::string> Pool = Gen.distinct(64);
  std::mt19937_64 Rng(322);
  std::vector<bool> Present(Pool.size(), false);
  for (int Step = 0; Step != 100000; ++Step) {
    const size_t I = Rng() % Pool.size();
    if (Present[I])
      EXPECT_TRUE(Map.erase(Pool[I])) << Step;
    else
      EXPECT_TRUE(Map.insert(Pool[I], static_cast<int>(I))) << Step;
    Present[I] = !Present[I];
  }
  for (size_t I = 0; I != Pool.size(); ++I)
    EXPECT_EQ(Map.contains(Pool[I]), static_cast<bool>(Present[I])) << I;
  EXPECT_LE(Map.capacity(), 1024u)
      << "tombstone sweeps must keep a 64-key pool in a small table";
  EXPECT_LE(Map.tombstones(), Map.capacity() * 7 / 8);
}

TEST(FlatIndexMapTest, InsertBatchHashesThroughBatchKernel) {
  const SynthesizedHash Hash = bijectiveHash(R"([0-9]{6}xy)");
  FlatIndexMap<int> Batched(Hash);
  FlatIndexMap<int> Plain(Hash);
  Expected<FormatSpec> Spec = parseRegex(R"([0-9]{6}xy)");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 909);
  // 517 keys: spans two 256-key batch blocks plus a remainder.
  const std::vector<std::string> Keys = Gen.distinct(517);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<int> Values;
  for (size_t I = 0; I != Keys.size(); ++I) {
    Values.push_back(static_cast<int>(I));
    Plain.insert(Keys[I], static_cast<int>(I));
  }
  EXPECT_EQ(Batched.insertBatch(Views.data(), Values.data(), Views.size()),
            Views.size());
  EXPECT_EQ(Batched.size(), Plain.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_NE(Batched.find(Keys[I]), nullptr) << I;
    EXPECT_EQ(*Batched.find(Keys[I]), static_cast<int>(I));
  }
  // Re-inserting the same block inserts nothing.
  EXPECT_EQ(Batched.insertBatch(Views.data(), Values.data(), Views.size()),
            0u);
}

/// A second, different bijection over the same format: Pext with the
/// top-bits spread disabled packs the extracted chunks low, so images
/// differ from the default while injectivity is preserved.
SynthesizedHash bijectiveHashNoSpread(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  SynthesisOptions Options;
  Options.SpreadToTopBits = false;
  Expected<HashPlan> Plan =
      synthesize(Spec->abstract(), HashFamily::Pext, Options);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take());
}

TEST(FlatIndexMapTest, RehashWithPreservesEveryMapping) {
  // >8 bytes so the pext plan has two extraction steps — the top-bits
  // spread only moves the last chunk of a multi-step plan, and the two
  // hashes must genuinely differ for the migration to mean anything.
  const char *Regex = R"([0-9]{9}zzzzzzz)";
  const SynthesizedHash OldHash = bijectiveHash(Regex);
  const SynthesizedHash NewHash = bijectiveHashNoSpread(Regex);
  Expected<FormatSpec> Spec = parseRegex(Regex);
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 313);
  const std::vector<std::string> Keys = Gen.distinct(5000);
  // The two bijections genuinely disagree, so the migration below is
  // not a no-op.
  ASSERT_NE(OldHash(Keys[0]), NewHash(Keys[0]));

  FlatIndexMap<int> Map(OldHash);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.insert(Keys[I], static_cast<int>(I));

  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  const FlatIndexMap<int> Migrated =
      Map.rehashWith(NewHash, Views.data(), Views.size());
  EXPECT_EQ(Migrated.size(), Map.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    const int *Value = Migrated.find(Keys[I]);
    ASSERT_NE(Value, nullptr) << Keys[I];
    EXPECT_EQ(*Value, static_cast<int>(I));
    // The migrated map is keyed by the new bijection's images.
    EXPECT_EQ(Migrated.findHashed(NewHash(Keys[I])), Value);
  }
  // The source map is untouched (rehashWith builds off to the side).
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_NE(Map.find(Keys[I]), nullptr);
}

TEST(FlatIndexMapTest, RehashWithIsSafeUnderConcurrentReaders) {
  // The adaptive swap protocol: readers keep resolving lookups through
  // an atomically published map pointer while rehashWith builds the
  // successor; after the pointer swings, they resolve through the new
  // map. Either generation must answer every lookup correctly.
  const char *Regex = R"([0-9]{9}zzzzzzz)";
  Expected<FormatSpec> Spec = parseRegex(Regex);
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 717);
  const std::vector<std::string> Keys = Gen.distinct(2000);

  FlatIndexMap<int> OldMap(bijectiveHash(Regex));
  for (size_t I = 0; I != Keys.size(); ++I)
    OldMap.insert(Keys[I], static_cast<int>(I));
  std::atomic<const FlatIndexMap<int> *> Active{&OldMap};

  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 4; ++T)
    Readers.emplace_back([&, T] {
      std::mt19937_64 Rng(T);
      while (!Stop.load(std::memory_order_acquire)) {
        const FlatIndexMap<int> *Map = Active.load(std::memory_order_acquire);
        const size_t I = Rng() % Keys.size();
        const int *Value = Map->find(Keys[I]);
        if (Value == nullptr || *Value != static_cast<int>(I)) {
          Failed.store(true, std::memory_order_release);
          return;
        }
      }
    });

  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  const FlatIndexMap<int> NewMap =
      OldMap.rehashWith(bijectiveHashNoSpread(Regex), Views.data(),
                        Views.size());
  Active.store(&NewMap, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_FALSE(Failed.load());
  EXPECT_EQ(NewMap.size(), Keys.size());
}

} // namespace

TEST(FlatIndexMapTest, PropertyInterleavedOpsMatchUnorderedMap) {
  // Randomized insert/erase/find interleavings (with batch inserts and
  // batch probes mixed in) mirrored against std::unordered_map: after
  // every operation both maps agree on membership and value, and at
  // checkpoints on the full keyset.
  const char *Regex = R"([0-9]{9})";
  FlatIndexMap<uint32_t> Map(bijectiveHash(Regex));
  std::unordered_map<std::string, uint32_t> Mirror;

  KeyGenerator Gen(*parseRegex(Regex), KeyDistribution::Uniform, 0x10a1);
  const std::vector<std::string> Keys = Gen.distinct(600);
  std::mt19937_64 Rng(0xfeed);

  const auto Check = [&](const std::string &Key) {
    const uint32_t *Mine = Map.find(Key);
    const auto Theirs = Mirror.find(Key);
    ASSERT_EQ(Mine != nullptr, Theirs != Mirror.end()) << Key;
    if (Mine != nullptr) {
      ASSERT_EQ(*Mine, Theirs->second) << Key;
    }
  };

  for (size_t Step = 0; Step != 4000; ++Step) {
    const std::string &Key = Keys[Rng() % Keys.size()];
    switch (Rng() % 4) {
    case 0: { // Insert (first insert wins, like FlatIndexMap).
      const uint32_t V = static_cast<uint32_t>(Rng());
      const bool Mine = Map.insert(Key, V);
      const bool Theirs = Mirror.emplace(Key, V).second;
      ASSERT_EQ(Mine, Theirs) << Key;
      break;
    }
    case 1: { // Erase.
      const bool Mine = Map.erase(Key);
      const bool Theirs = Mirror.erase(Key) != 0;
      ASSERT_EQ(Mine, Theirs) << Key;
      break;
    }
    case 2: { // Batch insert of a random slice.
      const size_t Start = Rng() % Keys.size();
      const size_t Len = std::min<size_t>(1 + Rng() % 48,
                                          Keys.size() - Start);
      std::vector<std::string_view> Views(Keys.begin() + Start,
                                          Keys.begin() + Start + Len);
      std::vector<uint32_t> Values(Len);
      for (uint32_t &V : Values)
        V = static_cast<uint32_t>(Rng());
      const size_t Mine = Map.insertBatch(Views.data(), Values.data(), Len);
      size_t Theirs = 0;
      for (size_t I = 0; I != Len; ++I)
        Theirs += Mirror.emplace(Keys[Start + I], Values[I]).second ? 1 : 0;
      ASSERT_EQ(Mine, Theirs);
      break;
    }
    default: // Find.
      Check(Key);
      break;
    }
    ASSERT_EQ(Map.size(), Mirror.size()) << "step " << Step;
    if (Step % 512 == 0)
      for (const std::string &K : Keys)
        Check(K);
  }

  // Final sweep, through the batch probe path as well.
  for (const std::string &K : Keys)
    Check(K);
  const SynthesizedHash Hash = Map.hasher();
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Images(Keys.size());
  Hash.hashBatch(Views.data(), Images.data(), Views.size());
  std::vector<uint32_t *> Out(Keys.size());
  Map.findHashedBatch(Images.data(), Out.data(), Images.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    const auto Theirs = Mirror.find(Keys[I]);
    ASSERT_EQ(Out[I] != nullptr, Theirs != Mirror.end()) << Keys[I];
    if (Out[I] != nullptr) {
      ASSERT_EQ(*Out[I], Theirs->second);
    }
  }
}
