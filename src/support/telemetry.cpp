//===- support/telemetry.cpp - Metric registry + JSON export -------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "support/json.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

using namespace sepe;

namespace {

/// Name -> metric maps. std::map because its nodes never move: the
/// references handed out by counter()/histogram()/span() must stay
/// valid for the process lifetime (instrumentation sites cache them in
/// function-local statics).
struct Registry {
  std::mutex Mutex;
  std::map<std::string, telemetry::Counter> Counters;
  std::map<std::string, telemetry::Histogram> Histograms;
  std::map<std::string, telemetry::Histogram> Spans;
};

Registry &registry() {
  static Registry R;
  return R;
}

bool envEnabled() {
  const char *Env = std::getenv("SEPE_TELEMETRY_ENABLED");
  return Env != nullptr && Env[0] != '\0' && Env[0] != '0';
}

void appendEscaped(std::string &Out, const std::string &S) {
  // Full RFC 8259 escaping (shared with the sampled-key exporters):
  // metric names are ASCII today, but the registry is open to any
  // literal an instrumentation site passes.
  Out += json::escapeString(S);
}

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

/// One histogram as {"count":..,"sum":..,"max":..,"p50":..,"p90":..,
/// "p99":..,"p999":..,"buckets":[..]} — the percentiles are estimates
/// interpolated from the log2 bucket boundaries (Histogram::percentile)
/// and the bucket array is trimmed to the highest non-zero bucket (the
/// fixed 65-bucket layout is part of the schema, so readers can
/// reconstruct the ranges from the index alone).
void appendHistogram(std::string &Out, const telemetry::Histogram &H) {
  Out += "{\"count\":" + std::to_string(H.count());
  Out += ",\"sum\":" + std::to_string(H.sum());
  Out += ",\"max\":" + std::to_string(H.max());
  Out += ",\"p50\":";
  appendDouble(Out, H.percentile(0.50));
  Out += ",\"p90\":";
  appendDouble(Out, H.percentile(0.90));
  Out += ",\"p99\":";
  appendDouble(Out, H.percentile(0.99));
  Out += ",\"p999\":";
  appendDouble(Out, H.percentile(0.999));
  Out += ",\"buckets\":[";
  size_t Last = 0;
  for (size_t I = 0; I != telemetry::Histogram::NumBuckets; ++I)
    if (H.bucket(I) != 0)
      Last = I;
  for (size_t I = 0; I <= Last; ++I) {
    if (I != 0)
      Out += ',';
    Out += std::to_string(H.bucket(I));
  }
  Out += "]}";
}

void appendHistogramMap(std::string &Out, const char *Section,
                        const std::map<std::string, telemetry::Histogram> &M) {
  Out += '"';
  Out += Section;
  Out += "\":{";
  bool First = true;
  for (const auto &[Name, H] : M) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    appendEscaped(Out, Name);
    Out += "\":";
    appendHistogram(Out, H);
  }
  Out += '}';
}

} // namespace

std::atomic<bool> telemetry::detail::EnabledFlag{envEnabled()};

void telemetry::setEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
}

telemetry::Counter &telemetry::counter(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Counters[Name];
}

telemetry::Histogram &telemetry::histogram(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Histograms[Name];
}

telemetry::Histogram &telemetry::span(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Spans[Name];
}

std::string telemetry::toJson() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out = "{\"schema_version\":1,";
  Out += std::string("\"enabled\":") + (enabled() ? "true" : "false") + ",";
  Out += "\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : R.Counters) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    appendEscaped(Out, Name);
    Out += "\":" + std::to_string(C.value());
  }
  Out += "},";
  appendHistogramMap(Out, "histograms", R.Histograms);
  Out += ',';
  appendHistogramMap(Out, "spans", R.Spans);
  Out += '}';
  return Out;
}

void telemetry::resetAll() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (auto &[Name, C] : R.Counters)
    C.reset();
  for (auto &[Name, H] : R.Histograms)
    H.reset();
  for (auto &[Name, H] : R.Spans)
    H.reset();
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; the
/// registry's dotted paths (and any future dynamically-built name)
/// are flattened onto that alphabet and prefixed.
std::string promName(const std::string &Name, const char *Suffix = "") {
  std::string Out = "sepe_";
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  Out += Suffix;
  return Out;
}

void appendPromSummary(std::string &Out, const std::string &Name,
                       const telemetry::Histogram &H) {
  Out += "# TYPE " + Name + " summary\n";
  static constexpr struct {
    const char *Label;
    double Q;
  } Quantiles[] = {
      {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}};
  for (const auto &[Label, Q] : Quantiles) {
    Out += Name + "{quantile=\"" + Label + "\"} ";
    appendDouble(Out, H.percentile(Q));
    Out += '\n';
  }
  Out += Name + "_sum " + std::to_string(H.sum()) + '\n';
  Out += Name + "_count " + std::to_string(H.count()) + '\n';
}

} // namespace

std::string telemetry::toPrometheus() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  for (const auto &[Name, C] : R.Counters) {
    const std::string N = promName(Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + std::to_string(C.value()) + '\n';
  }
  for (const auto &[Name, H] : R.Histograms)
    appendPromSummary(Out, promName(Name), H);
  for (const auto &[Name, H] : R.Spans)
    appendPromSummary(Out, promName(Name, "_ns"), H);
  return Out;
}
