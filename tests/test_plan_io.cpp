//===- tests/test_plan_io.cpp - Plan serialization -------------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/plan_io.h"

#include "core/executor.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

using namespace sepe;

namespace {

bool plansEqual(const HashPlan &A, const HashPlan &B) {
  return A.Family == B.Family && A.MinKeyLen == B.MinKeyLen &&
         A.MaxKeyLen == B.MaxKeyLen && A.FixedLength == B.FixedLength &&
         A.FallbackToStl == B.FallbackToStl &&
         A.PartialLoad == B.PartialLoad && A.Bijective == B.Bijective &&
         A.Steps == B.Steps && A.Skip.Skip == B.Skip.Skip &&
         A.Skip.Masks == B.Skip.Masks &&
         A.Skip.TailStart == B.Skip.TailStart &&
         A.FreeBits == B.FreeBits;
}

TEST(PlanIoTest, RoundTripsEveryPaperFormatAndFamily) {
  for (PaperKey Key : AllPaperKeys)
    for (HashFamily Family : {HashFamily::Naive, HashFamily::OffXor,
                              HashFamily::Aes, HashFamily::Pext}) {
      Expected<HashPlan> Plan =
          synthesize(paperKeyFormat(Key).abstract(), Family);
      ASSERT_TRUE(Plan);
      const std::string Text = serializePlan(*Plan);
      Expected<HashPlan> Round = deserializePlan(Text);
      ASSERT_TRUE(Round) << paperKeyName(Key) << "/" << familyName(Family)
                         << ": " << Round.error().Message;
      EXPECT_TRUE(plansEqual(*Plan, *Round))
          << paperKeyName(Key) << "/" << familyName(Family) << "\n"
          << Text;
    }
}

TEST(PlanIoTest, RoundTripsVariableLengthPlans) {
  Expected<FormatSpec> Spec = parseRegex(R"(user-\d{10}(.){0,8})");
  ASSERT_TRUE(Spec);
  for (HashFamily Family : {HashFamily::OffXor, HashFamily::Pext,
                            HashFamily::Aes}) {
    Expected<HashPlan> Plan = synthesize(Spec->abstract(), Family);
    ASSERT_TRUE(Plan);
    Expected<HashPlan> Round = deserializePlan(serializePlan(*Plan));
    ASSERT_TRUE(Round) << Round.error().Message;
    EXPECT_TRUE(plansEqual(*Plan, *Round)) << familyName(Family);
  }
}

TEST(PlanIoTest, RoundTripsFallbackAndPartialPlans) {
  Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
  ASSERT_TRUE(Spec);
  Expected<HashPlan> Fallback =
      synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Fallback);
  Expected<HashPlan> Round = deserializePlan(serializePlan(*Fallback));
  ASSERT_TRUE(Round);
  EXPECT_TRUE(Round->FallbackToStl);

  SynthesisOptions Force;
  Force.AllowShortKeys = true;
  Expected<HashPlan> Partial =
      synthesize(Spec->abstract(), HashFamily::Pext, Force);
  ASSERT_TRUE(Partial);
  Expected<HashPlan> Round2 = deserializePlan(serializePlan(*Partial));
  ASSERT_TRUE(Round2);
  EXPECT_TRUE(plansEqual(*Partial, *Round2));
}

TEST(PlanIoTest, DeserializedPlanHashesIdentically) {
  // The executor over a round-tripped plan is the same function.
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  Expected<HashPlan> Round = deserializePlan(serializePlan(*Plan));
  ASSERT_TRUE(Round);
  const SynthesizedHash Original(Plan.take());
  const SynthesizedHash Restored(Round.take());
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   808);
  for (int I = 0; I != 100; ++I) {
    const std::string Key = Gen.next();
    EXPECT_EQ(Original(Key), Restored(Key));
  }
}

TEST(PlanIoTest, SerializedTextIsHumanReadable) {
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  const std::string Text = serializePlan(*Plan);
  EXPECT_NE(Text.find("sepe-plan v1"), std::string::npos);
  EXPECT_NE(Text.find("family Pext"), std::string::npos);
  EXPECT_NE(Text.find("len 11 11"), std::string::npos);
  EXPECT_NE(Text.find("bijective"), std::string::npos);
  EXPECT_NE(Text.find("step 0 0x0f000f0f000f0f0f 0"), std::string::npos)
      << Text;
}

TEST(PlanIoTest, CommentsAndBlankLinesIgnored) {
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan);
  std::string Text = serializePlan(*Plan);
  Text.insert(Text.find('\n') + 1, "# a comment\n\n");
  Expected<HashPlan> Round = deserializePlan(Text);
  ASSERT_TRUE(Round);
  EXPECT_TRUE(plansEqual(*Plan, *Round));
}

TEST(PlanIoTest, RejectsMalformedInput) {
  const std::vector<std::string> Bad = {
      "",
      "not-a-plan\n",
      "sepe-plan v1\n",                                    // incomplete
      "sepe-plan v1\nfamily Bogus\nlen 8 8\n",             // bad family
      "sepe-plan v1\nfamily Pext\nlen 9 3\n",              // min > max
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 zz 0\n", // bad mask
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 0x1 99\n", // shift >= 64
      "sepe-plan v1\nfamily Pext\nlen 8 8\nflags wat\n",
      "sepe-plan v1\nfamily Pext\nlen 8 8\nwhatkey 1\n",
      "sepe-plan v1\nfamily Pext\nlen 8 8\n", // fixed without steps
  };
  for (const std::string &Text : Bad) {
    Expected<HashPlan> Result = deserializePlan(Text);
    EXPECT_FALSE(Result) << "accepted: " << Text;
  }
}

TEST(PlanIoTest, RejectsAStepLoadPastTheKey) {
  // The SSN Pext plan (11-byte keys) with one step moved to offset 8:
  // its 8-byte load would read bytes [8, 16) of an 11-byte key on every
  // lookup, through both the interpreter and the JIT.
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  const std::string Text = serializePlan(*Plan);
  const size_t Step = Text.rfind("step ");
  ASSERT_NE(Step, std::string::npos);
  const size_t OffsetEnd = Text.find(' ', Step + 5);
  const auto WithLastOffset = [&](const char *Offset) {
    return Text.substr(0, Step + 5) + Offset + Text.substr(OffsetEnd);
  };
  Expected<HashPlan> Result = deserializePlan(WithLastOffset("8"));
  ASSERT_FALSE(Result) << "accepted: " << WithLastOffset("8");
  EXPECT_NE(Result.error().Message.find("ends past the 11-byte key"),
            std::string::npos)
      << Result.error().Message;
  // The last in-bounds offset still loads.
  EXPECT_TRUE(deserializePlan(WithLastOffset("3")));

  // The confirmed case as a hand-written file.
  EXPECT_FALSE(deserializePlan("sepe-plan v1\nfamily Pext\nlen 11 11\n"
                               "flags bijective\nstep 8 0x0f0f 0\n"));
}

TEST(PlanIoTest, RejectsOffsetsAndLengthsPast32Bits) {
  // 2^32 used to wrap to offset 0 and load a valid-looking plan.
  EXPECT_FALSE(deserializePlan(
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 4294967296 0xff 0\n"));
  EXPECT_FALSE(deserializePlan(
      "sepe-plan v1\nfamily Pext\nlen 8 4294967304\nstep 0 0xff 0\n"));
  EXPECT_TRUE(deserializePlan(
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 0xff 0\n"));
}

TEST(PlanIoTest, RejectsAPartialLoadPastTheKey) {
  // A partial-load plan reads the first min(len, 8) bytes of its key.
  EXPECT_TRUE(deserializePlan("sepe-plan v1\nfamily Pext\nlen 4 4\n"
                              "flags partial\nstep 0 0x0f0f0f0f 0\n"));
  EXPECT_FALSE(deserializePlan("sepe-plan v1\nfamily Pext\nlen 4 4\n"
                               "flags partial\nstep 2 0x0f0f0f0f 0\n"));
  EXPECT_FALSE(deserializePlan("sepe-plan v1\nfamily Pext\nlen 4 4\n"
                               "flags partial variable\n"));
}

TEST(PlanIoTest, ErrorsCarryLineNumbers) {
  Expected<HashPlan> Result =
      deserializePlan("sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 zz 0\n");
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.error().Message.find("line 4"), std::string::npos)
      << Result.error().Message;
}

} // namespace
