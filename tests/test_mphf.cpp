//===- tests/test_mphf.cpp - Static-set tier (minimal perfect hashing) ----===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The MPHF subsystem: packed/Elias-Fano storage primitives, the three
// construction tiers (Mixer/Displace/Split), the bijectivity
// acceptance matrix over every paper format, serialization round-trips
// and the explain renderings.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf.h"

#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "mphf/mphf_explain.h"
#include "mphf/mphf_io.h"
#include "mphf/packed.h"
#include "quality/mphf_check.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace sepe;

namespace {

std::vector<std::string> paperKeys(PaperKey Key, size_t N,
                                   uint64_t Seed = 0x3f1d) {
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  return Gen.distinct(N);
}

MphfBuildOptions formatOptions(PaperKey Key) {
  MphfBuildOptions Options;
  Options.Format = &paperKeyFormat(Key);
  return Options;
}

//===----------------------------------------------------------------------===//
// Storage primitives
//===----------------------------------------------------------------------===//

TEST(PackedArrayTest, RoundTripsEveryWidth) {
  std::mt19937_64 Rng(0x9ac4);
  for (unsigned Bits = 0; Bits <= 57; ++Bits) {
    const uint64_t Mask =
        Bits == 0 ? 0 : (~uint64_t{0} >> (64 - Bits));
    std::vector<uint64_t> Values(129);
    for (uint64_t &V : Values)
      V = Rng() & Mask;
    PackedArray Packed(Bits, Values.size());
    for (size_t I = 0; I != Values.size(); ++I)
      Packed.set(I, Values[I]);
    EXPECT_EQ(Packed.bits(), Bits);
    for (size_t I = 0; I != Values.size(); ++I)
      ASSERT_EQ(Packed.get(I), Values[I]) << "width " << Bits << " @ " << I;
  }
}

TEST(PackedArrayTest, PackUsesTheWidthOfTheLargestValue) {
  const PackedArray Packed = PackedArray::pack({3, 0, 7, 1});
  EXPECT_EQ(Packed.bits(), 3u);
  EXPECT_EQ(Packed.size(), 4u);
  EXPECT_EQ(Packed.get(0), 3u);
  EXPECT_EQ(Packed.get(2), 7u);
  const PackedArray Zeros = PackedArray::pack({0, 0, 0});
  EXPECT_EQ(Zeros.bits(), 0u);
  EXPECT_EQ(Zeros.get(1), 0u);
}

TEST(EliasFanoTest, RandomMonotoneSequencesRoundTrip) {
  std::mt19937_64 Rng(0xef01);
  for (int Round = 0; Round != 8; ++Round) {
    const size_t N = 1 + Rng() % 3000;
    std::vector<uint64_t> Values(N);
    uint64_t Acc = 0;
    for (uint64_t &V : Values) {
      Acc += Rng() % 97; // plenty of repeats and small gaps
      V = Acc;
    }
    const EliasFano EF = EliasFano::encode(Values);
    ASSERT_EQ(EF.size(), N);
    EXPECT_EQ(EF.universe(), Values.back());
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(EF.get(I), Values[I]) << "round " << Round << " @ " << I;
    EXPECT_EQ(EF.decode(), Values);
  }
}

TEST(EliasFanoTest, BeatsPlainWordsOnDenseSequences) {
  std::vector<uint64_t> Values(10000);
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = I * 32; // bucket-offset-like density
  const EliasFano EF = EliasFano::encode(Values);
  EXPECT_LT(EF.bytesUsed(), Values.size() * sizeof(uint32_t))
      << "Elias-Fano must undercut even 32-bit plain storage here";
}

//===----------------------------------------------------------------------===//
// Construction tiers
//===----------------------------------------------------------------------===//

TEST(MphfBuildTest, TinySetsUseTheMixerTier) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 8);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_EQ(F->plan().Tier, MphfTier::Mixer);
  EXPECT_FALSE(F->plan().RawBase) << "SSN extraction must be usable";
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
}

TEST(MphfBuildTest, SmallSetsUseTheDisplaceTier) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 64);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_EQ(F->plan().Tier, MphfTier::Displace);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
}

TEST(MphfBuildTest, LargeSetsUseTheSplitTier) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_EQ(F->plan().Tier, MphfTier::Split);
  EXPECT_GT(F->plan().Pilots.size(), 0u);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
  // The space story: a handful of bits per key, not a stored key set.
  EXPECT_LT(F->plan().bitsPerKey(), 16.0);
}

TEST(MphfBuildTest, SingleKeyAndPairAreHandled) {
  for (size_t N : {1u, 2u}) {
    const std::vector<std::string> Keys = paperKeys(PaperKey::MAC, N);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::MAC));
    ASSERT_TRUE(F) << "n=" << N << ": " << F.error().Message;
    EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect()) << "n=" << N;
  }
}

TEST(MphfBuildTest, EmptySetIsAnError) {
  Expected<Mphf> F = buildMphf(std::vector<std::string>{});
  EXPECT_FALSE(F);
}

TEST(MphfBuildTest, DuplicateKeysAreReportedNotLooped) {
  std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 100);
  Keys.push_back(Keys.front());
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_FALSE(F);
  EXPECT_NE(F.error().Message.find("duplicate"), std::string::npos)
      << F.error().Message;
}

TEST(MphfBuildTest, RawBaseHandlesFormatlessKeys) {
  // No format, no extraction plan: arbitrary byte strings of mixed
  // lengths must still build via the seeded raw mix.
  std::vector<std::string> Keys;
  for (int I = 0; I != 500; ++I)
    Keys.push_back("key/" + std::to_string(I * 7919) + "/suffix" +
                   std::string(I % 13, 'x'));
  Expected<Mphf> F = buildMphf(Keys);
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_TRUE(F->plan().RawBase);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
}

TEST(MphfBuildTest, DeterministicForFixedSeed) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::CPF, 300);
  Expected<Mphf> A = buildMphf(Keys, formatOptions(PaperKey::CPF));
  Expected<Mphf> B = buildMphf(Keys, formatOptions(PaperKey::CPF));
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  EXPECT_EQ(serializeMphf(A->plan()), serializeMphf(B->plan()));
}

TEST(MphfBuildTest, OutOfSetKeysStayInRange) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 2000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0x07u);
  for (int I = 0; I != 4000; ++I) {
    const std::string Key = Gen.next();
    EXPECT_LT((*F)(Key), F->size()) << Key;
  }
  // Wildly out-of-format keys too.
  EXPECT_LT((*F)(""), F->size());
  EXPECT_LT((*F)("definitely not an ssn, far too long a key"), F->size());
}

TEST(MphfBuildTest, KeysOfOtherLengthsAreImagedRaw) {
  // The SSN plan loads 11 bytes. A set holding a key of another length
  // builds on raw imaging; a set of SSNs probed with other lengths, each
  // in a heap buffer of exactly its length, images those probes raw
  // (ASan sees an overread there with SEPE_JIT=0; JIT code is not
  // instrumented).
  std::vector<std::string> Mixed = paperKeys(PaperKey::SSN, 200);
  Mixed.push_back("12345");
  Expected<Mphf> Raw = buildMphf(Mixed, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(Raw) << Raw.error().Message;
  EXPECT_TRUE(Raw->plan().RawBase);
  EXPECT_TRUE(quality::measureMphf(*Raw, Mixed).perfect());

  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 200);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  ASSERT_FALSE(F->plan().RawBase);
  std::vector<std::unique_ptr<char[]>> Buffers;
  std::vector<std::string_view> Probes;
  for (size_t Len : {0u, 1u, 10u, 12u}) {
    Buffers.push_back(std::make_unique<char[]>(Len));
    std::memset(Buffers.back().get(), '7', Len);
    Probes.emplace_back(Buffers.back().get(), Len);
  }
  std::vector<uint64_t> Out(Probes.size());
  F->evalBatch(Probes.data(), Out.data(), Probes.size());
  for (size_t I = 0; I != Probes.size(); ++I) {
    EXPECT_EQ(Out[I], (*F)(Probes[I])) << Probes[I].size();
    EXPECT_LT(Out[I], F->size());
  }
}

TEST(MphfBuildTest, CollidingExtractionImagesFallBackToRaw) {
  // An SSN plan with every pext mask cleared images every key to one
  // value: the exact tiers and the Split tier's per-bucket check must
  // both see the collision, tell it from a duplicate key, and rebuild
  // on raw imaging.
  Expected<HashPlan> Synth =
      synthesize(paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Synth) << Synth.error().Message;
  HashPlan Blind = Synth.take();
  for (PlanStep &Step : Blind.Steps)
    Step.Mask = 0;
  MphfBuildOptions Options;
  Options.Extract = std::make_shared<const HashPlan>(Blind);
  for (size_t N : {40u, 300u}) {
    const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, N);
    Expected<Mphf> F = buildMphf(Keys, Options);
    ASSERT_TRUE(F) << "n=" << N << ": " << F.error().Message;
    EXPECT_TRUE(F->plan().RawBase) << "n=" << N;
    EXPECT_EQ(F->plan().Seed, MphfBuildOptions{}.Seed) << "n=" << N;
    EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect()) << "n=" << N;
  }
}

TEST(MphfBuildTest, BatchAgreesWithSingleKeyEval) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::IPv4, 777);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::IPv4));
  ASSERT_TRUE(F) << F.error().Message;
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Out(Views.size());
  F->evalBatch(Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Views.size(); ++I)
    ASSERT_EQ(Out[I], (*F)(Views[I])) << I;
}

//===----------------------------------------------------------------------===//
// The acceptance matrix: every paper format, three orders of magnitude
//===----------------------------------------------------------------------===//

TEST(MphfAcceptanceTest, AllPaperFormatsAtSixteenKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 16);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
    EXPECT_TRUE(R.perfect()) << paperKeyName(Key);
  }
}

TEST(MphfAcceptanceTest, AllPaperFormatsAtAThousandKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 1000);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
  }
}

TEST(MphfAcceptanceTest, AllPaperFormatsAtAHundredThousandKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 100000);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
    EXPECT_EQ(R.MaxIndex, Keys.size() - 1) << paperKeyName(Key);
  }
}

//===----------------------------------------------------------------------===//
// Golden plans: the flat, parallel builder emits exactly the plans the
// serial builder with one heap vector per bucket did. The digests are
// FNV-1a over serializeMphf, recorded from that serial builder.
//===----------------------------------------------------------------------===//

uint64_t planDigest(PaperKey Key, size_t N, bool WithFormat, MphfTier Tier) {
  const std::vector<std::string> Keys = paperKeys(Key, N);
  Expected<Mphf> F =
      buildMphf(Keys, WithFormat ? formatOptions(Key) : MphfBuildOptions{});
  EXPECT_TRUE(F) << F.error().Message;
  if (!F)
    return 0;
  EXPECT_EQ(F->plan().Tier, Tier);
  EXPECT_EQ(F->plan().RawBase, !WithFormat);
  uint64_t H = 0xCBF29CE484222325ull;
  for (const unsigned char C : serializeMphf(F->plan())) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

// 2^17 keys make 2^15 buckets, enough for the pilot search to split
// across workers.
TEST(MphfGoldenTest, RawBaseSplitPlanIsUnchanged) {
  EXPECT_EQ(planDigest(PaperKey::URL1, size_t{1} << 17, false,
                       MphfTier::Split),
            0x75d024abb9b89920ull);
}

TEST(MphfGoldenTest, ExtractionSplitPlanIsUnchanged) {
  EXPECT_EQ(planDigest(PaperKey::SSN, size_t{1} << 17, true,
                       MphfTier::Split),
            0xf27cf4d103bc64d9ull);
}

TEST(MphfGoldenTest, DisplacePlanIsUnchanged) {
  EXPECT_EQ(planDigest(PaperKey::SSN, 48, true, MphfTier::Displace),
            0x2731b026cbedbcb0ull);
}

//===----------------------------------------------------------------------===//
// Serialization and explain
//===----------------------------------------------------------------------===//

TEST(MphfIoTest, SplitTierRoundTrips) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1500);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  const std::string Text = serializeMphf(F->plan());
  Expected<MphfPlan> Back = deserializeMphf(Text);
  ASSERT_TRUE(Back) << Back.error().Message;
  EXPECT_EQ(serializeMphf(*Back), Text) << "serialize is a fixed point";
  const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
  for (const std::string &Key : Keys)
    ASSERT_EQ(G(Key), (*F)(Key)) << Key;
}

TEST(MphfIoTest, MixerAndDisplaceTiersRoundTrip) {
  for (size_t N : {6u, 48u}) {
    const std::vector<std::string> Keys = paperKeys(PaperKey::MAC, N);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::MAC));
    ASSERT_TRUE(F) << F.error().Message;
    Expected<MphfPlan> Back = deserializeMphf(serializeMphf(F->plan()));
    ASSERT_TRUE(Back) << "n=" << N << ": " << Back.error().Message;
    const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
    for (const std::string &Key : Keys)
      ASSERT_EQ(G(Key), (*F)(Key)) << Key;
  }
}

TEST(MphfIoTest, RawBasePlansRoundTripWithoutAnEmbeddedPlan) {
  std::vector<std::string> Keys;
  for (int I = 0; I != 200; ++I)
    Keys.push_back("raw-" + std::to_string(I));
  Expected<Mphf> F = buildMphf(Keys);
  ASSERT_TRUE(F) << F.error().Message;
  const std::string Text = serializeMphf(F->plan());
  EXPECT_EQ(Text.find("plan\n"), std::string::npos);
  Expected<MphfPlan> Back = deserializeMphf(Text);
  ASSERT_TRUE(Back) << Back.error().Message;
  EXPECT_TRUE(Back->RawBase);
  const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
  for (const std::string &Key : Keys)
    ASSERT_EQ(G(Key), (*F)(Key));
}

TEST(MphfIoTest, MalformedInputsFailWithLineNumbers) {
  EXPECT_FALSE(deserializeMphf(""));
  EXPECT_FALSE(deserializeMphf("not-a-plan\n"));
  EXPECT_FALSE(deserializeMphf("sepe-mphf v1\ntier Split\n"));
  EXPECT_FALSE(deserializeMphf("sepe-mphf v1\ntier Nope\nn 4\n"));
  Expected<MphfPlan> Unterminated =
      deserializeMphf("sepe-mphf v1\ntier Mixer\nn 4\nmixer 0x3\nplan\n");
  ASSERT_FALSE(Unterminated);
  EXPECT_NE(Unterminated.error().Message.find("endplan"),
            std::string::npos);
}

TEST(MphfIoTest, RejectsAPlanTheEvaluatorCannotWalk) {
  // Under leafmax 1 every bucket of more than one key is an interior
  // node with more pilots than the plan stores for it: the evaluator
  // would descend past the bucket's pilots (and past the pilot array).
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 100000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  ASSERT_EQ(F->plan().LeafMax, 12u);
  std::string Text = serializeMphf(F->plan());
  ASSERT_TRUE(deserializeMphf(Text));
  const size_t At = Text.find("\nleafmax 12\n");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 11, "\nleafmax 1");
  Expected<MphfPlan> Back = deserializeMphf(Text);
  ASSERT_FALSE(Back);
  EXPECT_NE(Back.error().Message.find("leafmax 1"), std::string::npos)
      << Back.error().Message;
}

TEST(MphfExplainTest, AllThreeFormatsRender) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;

  const std::string Text = explainMphf(F->plan(), ExplainFormat::Text);
  EXPECT_NE(Text.find("mphf Split"), std::string::npos) << Text;
  EXPECT_NE(Text.find("bits/key"), std::string::npos);
  EXPECT_NE(Text.find("extraction plan"), std::string::npos)
      << "embedded front-end must render";
  EXPECT_NE(Text.find("plan Pext"), std::string::npos);

  const std::string Json = explainMphf(F->plan(), ExplainFormat::Json);
  Expected<json::Value> Doc = json::parse(Json);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  EXPECT_EQ(Doc->stringOr("tier", ""), "Split");
  EXPECT_EQ(Doc->numberOr("n", 0), 1000.0);
  EXPECT_TRUE(Doc->find("extract") != nullptr);

  const std::string Dot = explainMphf(F->plan(), ExplainFormat::Dot);
  EXPECT_NE(Dot.find("digraph sepe_mphf"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

TEST(MphfExplainTest, MixerTierRendersItsConstant) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 4);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  ASSERT_EQ(F->plan().Tier, MphfTier::Mixer);
  const std::string Text = explainMphf(F->plan(), ExplainFormat::Text);
  EXPECT_NE(Text.find("mixer constant"), std::string::npos) << Text;
  Expected<json::Value> Doc =
      json::parse(explainMphf(F->plan(), ExplainFormat::Json));
  ASSERT_TRUE(Doc) << Doc.error().Message;
  EXPECT_NE(Doc->stringOr("mixer", ""), "");
}

} // namespace
