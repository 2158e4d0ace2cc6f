//===- tests/test_json.cpp - Minimal JSON parser --------------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The parser's one job is to round-trip the repo's own report writers
// (bench envelopes, telemetry dumps, PMU sections), so beyond the usual
// scalar/structure/escape cases it parses a representative
// BENCH_suite.json fragment and the telemetry registry's real output.
//
//===----------------------------------------------------------------------===//

#include "support/json.h"

#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>

using namespace sepe;

namespace {

json::Value parseOk(const std::string &Text) {
  Expected<json::Value> Doc = json::parse(Text);
  EXPECT_TRUE(Doc) << Text;
  return Doc ? Doc.take() : json::Value::makeNull();
}

TEST(Json, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").boolean());
  EXPECT_FALSE(parseOk("false").boolean());
  EXPECT_DOUBLE_EQ(parseOk("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(parseOk("-3.5e2").number(), -350.0);
  EXPECT_EQ(parseOk("\"hi\"").string(), "hi");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parseOk(R"("a\"b\\c\/d")").string(), "a\"b\\c/d");
  EXPECT_EQ(parseOk(R"("line\nbreak\ttab")").string(), "line\nbreak\ttab");
  EXPECT_EQ(parseOk(R"("AB")").string(), "AB");
}

TEST(Json, NestedStructure) {
  const json::Value Doc = parseOk(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(Doc.isObject());
  const json::Value *A = Doc.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_DOUBLE_EQ(A->array()[0].number(), 1.0);
  EXPECT_TRUE(A->array()[2].find("b")->boolean());
  EXPECT_TRUE(Doc.find("c")->find("d")->isNull());
  EXPECT_EQ(Doc.stringOr("e", ""), "x");
  EXPECT_EQ(Doc.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(Doc.numberOr("missing", -1), -1.0);
}

TEST(Json, ErrorsArePositioned) {
  for (const char *Bad :
       {"", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
        "01", "[1] trailing", "{\"a\": 1,}"})
    EXPECT_FALSE(json::parse(Bad)) << Bad;
}

TEST(Json, DepthIsBounded) {
  // 100 nested arrays exceed the parser's depth cap; the error must be
  // a clean Expected, not a stack overflow.
  std::string Deep;
  for (int I = 0; I != 100; ++I)
    Deep += '[';
  EXPECT_FALSE(json::parse(Deep));
}

TEST(Json, ParsesBenchEnvelopeShape) {
  const json::Value Doc = parseOk(R"({
    "schema_version": 1,
    "benchmark": "sepebench",
    "cpu_features": "avx2,bmi2",
    "workloads": [
      {"name": "hash_single/SSN/Pext", "unit": "ns_per_key",
       "median": 2.2141, "mad": 0.0270, "raw": [2.21, 2.19, 2.25],
       "pmu": {"available": false, "reason": "denied"}}
    ],
    "resources": {"peak_rss_kb": 6200, "user_sec": 1.03},
    "telemetry": {"compiled_in": false}
  })");
  EXPECT_DOUBLE_EQ(Doc.numberOr("schema_version", 0), 1.0);
  const json::Value *Workloads = Doc.find("workloads");
  ASSERT_NE(Workloads, nullptr);
  ASSERT_EQ(Workloads->array().size(), 1u);
  const json::Value &W = Workloads->array()[0];
  EXPECT_EQ(W.stringOr("name", ""), "hash_single/SSN/Pext");
  EXPECT_DOUBLE_EQ(W.numberOr("median", 0), 2.2141);
  EXPECT_FALSE(W.find("pmu")->find("available")->boolean());
}

TEST(Json, ParsesRealTelemetryDump) {
  // Whatever telemetry::toJson() emits must be a document our own
  // reader accepts — the bench envelope embeds it.
  Expected<json::Value> Doc = json::parse(telemetry::toJson());
  ASSERT_TRUE(Doc);
  ASSERT_NE(Doc->find("enabled"), nullptr);
  ASSERT_NE(Doc->find("counters"), nullptr);
}

TEST(Json, DuplicateKeysKeepFirst) {
  EXPECT_DOUBLE_EQ(parseOk(R"({"a": 1, "a": 2})").numberOr("a", 0), 1.0);
}

TEST(Json, ParseFileErrors) {
  EXPECT_FALSE(json::parseFile("/nonexistent/path/report.json"));
}

TEST(Json, EscapeStringHandlesControlAndNonAscii) {
  EXPECT_EQ(json::escapeString("plain"), "plain");
  EXPECT_EQ(json::escapeString("a\"b\\c"), R"(a\"b\\c)");
  EXPECT_EQ(json::escapeString("\n\t\r\b\f"), R"(\n\t\r\b\f)");
  EXPECT_EQ(json::escapeString(std::string_view("\0x", 2)), R"(\u0000x)");
  EXPECT_EQ(json::escapeString("\x1f"), R"(\u001f)");
  EXPECT_EQ(json::escapeString("\x7f"), R"(\u007f)");
  EXPECT_EQ(json::escapeString("\xff"), R"(\u00ff)");
}

TEST(Json, EscapeStringRoundTripsEveryByte) {
  std::string All;
  for (int B = 0; B != 256; ++B)
    All += static_cast<char>(B);
  const json::Value Doc = parseOk("\"" + json::escapeString(All) + "\"");
  EXPECT_EQ(Doc.string(), All);
}

TEST(Json, EscapeStringRoundTripsRandomStrings) {
  // The writer/parser pair must round-trip arbitrary byte strings —
  // sampled key dumps (runtime/adaptive_hash.h sampledKeys) can carry
  // any byte the drifted stream does.
  std::mt19937_64 Rng(1234);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::string S;
    const size_t Len = Rng() % 64;
    for (size_t I = 0; I != Len; ++I)
      S += static_cast<char>(Rng() % 256);
    const std::string Escaped = json::escapeString(S);
    for (char C : Escaped)
      EXPECT_TRUE(static_cast<unsigned char>(C) >= 0x20 &&
                  static_cast<unsigned char>(C) <= 0x7E)
          << "escaped text must be printable ASCII";
    const json::Value Doc = parseOk("\"" + Escaped + "\"");
    EXPECT_EQ(Doc.string(), S) << "trial " << Trial;
  }
}

} // namespace
