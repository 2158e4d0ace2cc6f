//===- tests/test_telemetry.cpp - Observability substrate -----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The counter/histogram/timer semantics and the runtime gate, plus two
// end-to-end properties (the FlatIndexMap probe-length walk, executor
// batch dispatch accounting).
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "container/flat_index_map.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

using namespace sepe;

namespace {

/// Zeroes the registry and enables recording for one test body;
/// restores the default-off state on scope exit so no other test sees
/// telemetry enabled.
struct TelemetryScope {
  TelemetryScope() {
    telemetry::resetAll();
    telemetry::setEnabled(true);
  }
  ~TelemetryScope() { telemetry::setEnabled(false); }
};

SynthesizedHash bijectiveHash(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take());
}

TEST(TelemetryCoreTest, DisabledByDefault) {
  // Recording must be opt-in (setEnabled or the SEPE_TELEMETRY_ENABLED
  // env var, which the test harness never sets).
  EXPECT_FALSE(telemetry::enabled());
}

TEST(TelemetryCoreTest, CounterGatesOnEnabledFlag) {
  TelemetryScope Scope;
  telemetry::Counter &C = telemetry::counter("test.counter.gate");
  C.add();
  C.add(9);
  EXPECT_EQ(C.value(), 10u);

  telemetry::setEnabled(false);
  C.add(100);
  EXPECT_EQ(C.value(), 10u) << "disabled counter must not move";

  telemetry::setEnabled(true);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(TelemetryCoreTest, HistogramBucketsAndMoments) {
  using telemetry::Histogram;
  // The log2 layout: bucket 0 <- {0}, bucket i <- [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucketFloor(0), 0u);
  EXPECT_EQ(Histogram::bucketFloor(1), 1u);
  EXPECT_EQ(Histogram::bucketFloor(5), 16u);

  TelemetryScope Scope;
  telemetry::Histogram &H = telemetry::histogram("test.histogram.moments");
  for (uint64_t V : {0, 1, 2, 3, 1000})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(Histogram::bucketOf(1000)), 1u);

  telemetry::setEnabled(false);
  H.record(5);
  EXPECT_EQ(H.count(), 5u) << "disabled histogram must not move";
}

TEST(TelemetryCoreTest, PercentileInterpolatesBucketBoundaries) {
  TelemetryScope Scope;
  telemetry::Histogram &H = telemetry::histogram("test.percentile");
  EXPECT_EQ(H.percentile(0.50), 0.0) << "empty histogram";

  // 99 samples in [16, 32) and one at 1000: the p50 lands mid-bucket,
  // the p999 rides the outlier but clamps to the observed max.
  for (int I = 0; I != 99; ++I)
    H.record(16);
  H.record(1000);
  const double P50 = H.percentile(0.50);
  EXPECT_GE(P50, 16.0);
  EXPECT_LT(P50, 32.0);
  const double P999 = H.percentile(0.999);
  EXPECT_GT(P999, 32.0);
  EXPECT_LE(P999, 1000.0) << "clamped to max(), not the bucket ceiling";
  // Quantiles are monotone in Q.
  EXPECT_LE(H.percentile(0.50), H.percentile(0.90));
  EXPECT_LE(H.percentile(0.90), H.percentile(0.99));
  EXPECT_LE(H.percentile(0.99), H.percentile(0.999));

  // The JSON export carries the summary keys.
  const std::string Json = telemetry::toJson();
  EXPECT_NE(Json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p999\":"), std::string::npos);
}

TEST(TelemetryCoreTest, PercentileEdgeCases) {
  TelemetryScope Scope;

  // Empty histogram: every quantile, including the clamped extremes,
  // is 0.0 rather than NaN or a bucket floor.
  telemetry::Histogram &Empty = telemetry::histogram("test.pct.empty");
  for (double Q : {-1.0, 0.0, 0.5, 1.0, 2.0})
    EXPECT_EQ(Empty.percentile(Q), 0.0) << "Q=" << Q;

  // Single-bucket population: all mass in [4, 8). Every quantile must
  // land inside that bucket and at or below the observed max.
  telemetry::Histogram &One = telemetry::histogram("test.pct.onebucket");
  for (int I = 0; I != 10; ++I)
    One.record(7);
  for (double Q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double P = One.percentile(Q);
    EXPECT_GE(P, 4.0) << "Q=" << Q;
    EXPECT_LE(P, 7.0) << "Q=" << Q << " must clamp to the observed max";
  }

  // Out-of-range Q clamps instead of extrapolating: below 0 behaves
  // like 0, above 1 like 1 (the observed max).
  telemetry::Histogram &Spread = telemetry::histogram("test.pct.spread");
  for (uint64_t V : {1, 10, 100, 1000})
    Spread.record(V);
  EXPECT_EQ(Spread.percentile(-0.5), Spread.percentile(0.0));
  EXPECT_EQ(Spread.percentile(1.5), Spread.percentile(1.0));
  EXPECT_LE(Spread.percentile(1.0), 1000.0);

  // Monotone ladder across buckets: p50 <= p90 <= p99 <= p999.
  EXPECT_LE(Spread.percentile(0.50), Spread.percentile(0.90));
  EXPECT_LE(Spread.percentile(0.90), Spread.percentile(0.99));
  EXPECT_LE(Spread.percentile(0.99), Spread.percentile(0.999));
}

TEST(TelemetryCoreTest, PrometheusExposition) {
  TelemetryScope Scope;
  telemetry::counter("test.prom.counter").add(5);
  telemetry::histogram("test.prom.hist").record(32);
  telemetry::span("test.prom.span").record(1024);
  const std::string Text = telemetry::toPrometheus();
  // Names are flattened onto the Prometheus alphabet and prefixed.
  EXPECT_NE(Text.find("# TYPE sepe_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_counter 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sepe_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_hist_count 1"), std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_span_ns{quantile=\"0.5\"}"),
            std::string::npos)
      << "span histograms carry the _ns unit suffix";
}

TEST(TelemetryCoreTest, ScopedTimerRecordsOnlyWhenEnabled) {
  TelemetryScope Scope;
  telemetry::Histogram &Span = telemetry::span("test.timer");
  {
    telemetry::ScopedTimer T(Span);
    volatile unsigned Spin = 0;
    for (unsigned I = 0; I != 1000; ++I)
      Spin = Spin + 1;
  }
  EXPECT_EQ(Span.count(), 1u);

  telemetry::setEnabled(false);
  { telemetry::ScopedTimer T(Span); }
  EXPECT_EQ(Span.count(), 1u) << "disabled timer must not record";
}

TEST(TelemetryCoreTest, MacrosFeedTheRegistryAndResetAllZeroes) {
  TelemetryScope Scope;
  for (int I = 0; I != 3; ++I) {
    SEPE_COUNT("test.macro.count");
    SEPE_RECORD("test.macro.record", 16);
    SEPE_SPAN("test.macro.span");
  }
  EXPECT_EQ(telemetry::counter("test.macro.count").value(), 3u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").count(), 3u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").sum(), 48u);
  EXPECT_EQ(telemetry::span("test.macro.span").count(), 3u);

  const std::string Json = telemetry::toJson();
  EXPECT_NE(Json.find("\"test.macro.count\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"test.macro.record\""), std::string::npos);
  EXPECT_NE(Json.find("\"test.macro.span\""), std::string::npos);

  telemetry::resetAll();
  EXPECT_EQ(telemetry::counter("test.macro.count").value(), 0u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").count(), 0u);
  EXPECT_EQ(telemetry::span("test.macro.span").count(), 0u);
}

// The probe-length walk: one sample per live key, so the histogram's
// count is size() and its max is maxProbeLength(); no key can sit
// zero groups from home. The probe loops themselves record nothing.
TEST(TelemetryFlatIndexMapTest, ProbeHistogramTotalsMatchLookups) {
  const SynthesizedHash Pext = bijectiveHash(R"(\d{3}-\d{2}-\d{4})");
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0x7e1e);
  const std::vector<std::string> Pool = Gen.distinct(4096);
  const size_t Half = Pool.size() / 2;

  FlatIndexMap<uint64_t> Map(Pext, 16);
  for (size_t I = 0; I != Half; ++I)
    Map.insert(Pool[I], I);

  TelemetryScope Scope;
  size_t Hits = 0;
  for (const std::string &Key : Pool)
    Hits += Map.find(Key) != nullptr ? 1 : 0;
  ASSERT_EQ(Hits, Half);
  EXPECT_EQ(telemetry::counter("flat_index_map.find.hit").value(), 0u)
      << "find() must stay uninstrumented";

  telemetry::Histogram &Probe =
      telemetry::histogram("flat_index_map.probe_groups.find");
  Map.forEachProbeLength([&Probe](size_t G) { Probe.record(G); });
  EXPECT_EQ(Probe.count(), Map.size());
  EXPECT_EQ(Probe.max(), Map.maxProbeLength());
  EXPECT_EQ(Probe.bucket(0), 0u) << "a probe always scans >= 1 group";
  EXPECT_GE(Probe.sum(), Probe.count());
}

TEST(TelemetryDispatchTest, ForcedPathsRecordTheForcedRung) {
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan);

  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0xd15b);
  const std::vector<std::string> Keys = Gen.distinct(37);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Out(Views.size());

  const char *AllRungs[] = {"scalar", "interleaved", "avx2"};
  for (BatchPath Preferred :
       {BatchPath::Scalar, BatchPath::Interleaved, BatchPath::Avx2}) {
    // A forced request the host cannot honor resolves downward, so the
    // assertion targets the resolved rung — which IS the forced one
    // whenever the host supports it, and for Scalar always.
    const SynthesizedHash Forced(*Plan, IsaLevel::Native, Preferred);
    const std::string Rung = Forced.batchPathName();
    if (Preferred == BatchPath::Scalar) {
      ASSERT_EQ(Rung, "scalar");
    }

    TelemetryScope Scope;
    Forced.hashBatch(Views.data(), Out.data(), Views.size());

    const std::string CallsName = "executor.batch.calls." + Rung;
    const std::string KeysName = "executor.batch.keys." + Rung;
    EXPECT_EQ(telemetry::counter(CallsName.c_str()).value(), 1u) << Rung;
    EXPECT_EQ(telemetry::histogram(KeysName.c_str()).count(), 1u) << Rung;
    EXPECT_EQ(telemetry::histogram(KeysName.c_str()).sum(), Views.size())
        << Rung;
    EXPECT_EQ(telemetry::histogram("executor.batch.tail_keys").sum(),
              Views.size() % 4);
    for (const char *Other : AllRungs) {
      if (Rung == Other)
        continue;
      const std::string OtherName = std::string("executor.batch.calls.") +
                                    Other;
      EXPECT_EQ(telemetry::counter(OtherName.c_str()).value(), 0u)
          << "forced " << Rung << " must not touch " << Other;
    }
  }
}

} // namespace
