//===- tests/test_direct_index_map.cpp - MPHF-backed static map -----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// DirectIndexMap: sealed lookups over an MPHF, the fingerprint
// membership check, and the false-positive-rate property across
// formats and fingerprint widths (an out-of-set key may only slip
// through at ~2^-FpBits).
//
//===----------------------------------------------------------------------===//

#include "container/direct_index_map.h"

#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace sepe;

namespace {

struct Fixture {
  std::vector<std::string> Keys;
  std::vector<std::string_view> Views;
  std::vector<uint32_t> Values;
  Mphf F;
};

Fixture makeFixture(PaperKey Key, size_t N, uint64_t Seed = 0xd1d1) {
  Fixture Fx;
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  Fx.Keys = Gen.distinct(N);
  Fx.Views.assign(Fx.Keys.begin(), Fx.Keys.end());
  Fx.Values.resize(N);
  for (size_t I = 0; I != N; ++I)
    Fx.Values[I] = static_cast<uint32_t>(I * 3 + 1);
  MphfBuildOptions Options;
  Options.Format = &paperKeyFormat(Key);
  Expected<Mphf> F = buildMphf(Fx.Keys, Options);
  EXPECT_TRUE(F) << F.error().Message;
  Fx.F = F.take();
  return Fx;
}

TEST(DirectIndexMapTest, EveryInSetKeyFindsItsOwnValue) {
  Fixture Fx = makeFixture(PaperKey::SSN, 5000);
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Views.data(), Fx.Values.data(),
                               Fx.Views.size());
  ASSERT_TRUE(Map.valid());
  EXPECT_EQ(Map.size(), Fx.Keys.size());
  for (size_t I = 0; I != Fx.Keys.size(); ++I) {
    const uint32_t *V = Map.find(Fx.Keys[I]);
    ASSERT_NE(V, nullptr) << Fx.Keys[I];
    EXPECT_EQ(*V, Fx.Values[I]) << "wrong value for " << Fx.Keys[I];
  }
}

TEST(DirectIndexMapTest, FindBatchAgreesWithFind) {
  Fixture Fx = makeFixture(PaperKey::MAC, 900);
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Views.data(), Fx.Values.data(),
                               Fx.Views.size());
  ASSERT_TRUE(Map.valid());
  std::vector<const uint32_t *> Out(Fx.Views.size());
  const size_t Hits =
      Map.findBatch(Fx.Views.data(), Out.data(), Fx.Views.size());
  EXPECT_EQ(Hits, Fx.Views.size());
  for (size_t I = 0; I != Fx.Views.size(); ++I)
    ASSERT_EQ(Out[I], Map.find(Fx.Views[I])) << I;
}

TEST(DirectIndexMapTest, KeysOfOtherLengthsAreAbsent) {
  // SSN keys are imaged through an 11-byte extraction plan. Probes of
  // other lengths, each in a heap buffer of exactly its length, are
  // imaged by the raw mix instead (ASan sees an overread there with
  // SEPE_JIT=0; JIT code is not instrumented) and reported absent.
  Fixture Fx = makeFixture(PaperKey::SSN, 1000);
  ASSERT_FALSE(Fx.F.plan().RawBase);
  const DirectIndexMap<uint32_t, 16> Map(Fx.F, Fx.Views, Fx.Values);
  ASSERT_TRUE(Map.valid());
  const std::string Long = Fx.Keys[0] + Fx.Keys[1] + Fx.Keys[2] + "abcdefg";
  std::vector<std::unique_ptr<char[]>> Buffers;
  std::vector<std::string_view> Probes;
  for (std::string_view Text :
       {std::string_view(), std::string_view("1"),
        std::string_view(Fx.Keys[0]).substr(0, 10), std::string_view(Long)}) {
    Buffers.push_back(std::make_unique<char[]>(Text.size()));
    if (!Text.empty())
      std::memcpy(Buffers.back().get(), Text.data(), Text.size());
    Probes.emplace_back(Buffers.back().get(), Text.size());
  }
  ASSERT_EQ(Probes[3].size(), 40u);
  for (std::string_view Probe : Probes)
    EXPECT_EQ(Map.find(Probe), nullptr) << '"' << Probe << '"';
  std::vector<const uint32_t *> Out(Probes.size(), &Fx.Values[0]);
  EXPECT_EQ(Map.findBatch(Probes.data(), Out.data(), Probes.size()), 0u);
  for (const uint32_t *Hit : Out)
    EXPECT_EQ(Hit, nullptr);
}

TEST(DirectIndexMapTest, MismatchedMphfIsRejectedAtConstruction) {
  Fixture A = makeFixture(PaperKey::SSN, 100, 0xaaa);
  Fixture B = makeFixture(PaperKey::SSN, 100, 0xbbb);
  // B's keys behind A's MPHF: the construction-time bijection re-walk
  // must fail instead of sealing a silently-wrong map.
  DirectIndexMap<uint32_t> Map(A.F, B.Views.data(), B.Values.data(),
                               B.Views.size());
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find(B.Keys.front()), nullptr);
  EXPECT_EQ(Map.size(), 0u);
}

TEST(DirectIndexMapTest, DefaultConstructedMapRejectsEverything) {
  DirectIndexMap<int> Map;
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find("anything"), nullptr);
}

/// The satellite property: out-of-set keys must be rejected at a rate
/// consistent with the fingerprint width, across formats and widths.
template <unsigned FpBits>
double measuredFalsePositiveRate(PaperKey Key, size_t N, size_t Probes) {
  Fixture Fx = makeFixture(Key, N);
  DirectIndexMap<uint32_t, FpBits> Map(Fx.F, Fx.Views.data(),
                                       Fx.Values.data(), Fx.Views.size());
  EXPECT_TRUE(Map.valid());
  std::unordered_set<std::string> InSet(Fx.Keys.begin(), Fx.Keys.end());
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, 0xface);
  size_t FalsePositives = 0, Checked = 0;
  while (Checked != Probes) {
    const std::string Probe = Gen.next();
    if (InSet.count(Probe) != 0)
      continue; // only out-of-set keys count
    ++Checked;
    if (Map.find(Probe) != nullptr)
      ++FalsePositives;
  }
  return static_cast<double>(FalsePositives) / static_cast<double>(Probes);
}

TEST(DirectIndexMapFpRateTest, EightBitFingerprintsAcrossFormats) {
  // Expected rate 2^-8 ~ 0.39%. 20000 probes put the 5-sigma band at
  // ~0.6% absolute; 2% is a deterministic-failure threshold, not a
  // statistical razor.
  for (PaperKey Key :
       {PaperKey::SSN, PaperKey::MAC, PaperKey::IPv4, PaperKey::URL1}) {
    const double Rate = measuredFalsePositiveRate<8>(Key, 2000, 20000);
    EXPECT_LT(Rate, 0.02) << paperKeyName(Key);
  }
}

TEST(DirectIndexMapFpRateTest, SixteenBitFingerprintsAreTighter) {
  // Expected rate 2^-16 ~ 0.0015%: over 20000 probes, more than ~10
  // false positives means the fingerprint bits are not independent.
  for (PaperKey Key : {PaperKey::SSN, PaperKey::IPv6}) {
    const double Rate = measuredFalsePositiveRate<16>(Key, 2000, 20000);
    EXPECT_LT(Rate, 0.0005) << paperKeyName(Key);
  }
}

TEST(DirectIndexMapFpRateTest, WiderFingerprintsCostMoreMemory) {
  Fixture Fx = makeFixture(PaperKey::SSN, 4096);
  DirectIndexMap<uint32_t, 8> Narrow(Fx.F, Fx.Views.data(),
                                     Fx.Values.data(), Fx.Views.size());
  DirectIndexMap<uint32_t, 16> Wide(Fx.F, Fx.Views.data(), Fx.Values.data(),
                                    Fx.Views.size());
  ASSERT_TRUE(Narrow.valid());
  ASSERT_TRUE(Wide.valid());
  EXPECT_EQ(Wide.bytesUsed() - Narrow.bytesUsed(), Fx.Views.size())
      << "exactly one extra byte per key";
}

} // namespace
