//===- tests/test_metrics_exporter.cpp - Live metrics plane ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Exercises the Prometheus renderer and the two exporters end-to-end:
// the HTTP listener is scraped over a real loopback socket, and the
// snapshot writer is checked against the file it periodically rewrites.
// With recording off, the exposition still carries the flight-recorder
// gauges.
//
//===----------------------------------------------------------------------===//

#include "support/metrics_exporter.h"

#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace sepe;

namespace {

/// One blocking GET for \p Path against 127.0.0.1:\p Port; returns the
/// full response (headers + body), or "" on connect failure.
std::string httpGet(uint16_t Port, const std::string &Path = "/metrics") {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return "";
  }
  const std::string Request =
      "GET " + Path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)!::send(Fd, Request.data(), Request.size(), 0);
  std::string Out;
  char Buffer[4096];
  ssize_t Got = 0;
  while ((Got = ::recv(Fd, Buffer, sizeof(Buffer), 0)) > 0)
    Out.append(Buffer, static_cast<size_t>(Got));
  ::close(Fd);
  return Out;
}

TEST(MetricsRenderTest, CarriesTelemetryAndTraceGauges) {
  const std::string Text = metrics::renderPrometheus();
  // The flight-recorder gauges are present whether or not anything
  // is recording.
  EXPECT_NE(Text.find("sepe_trace_emitted"), std::string::npos);
  EXPECT_NE(Text.find("sepe_trace_dropped"), std::string::npos);
  EXPECT_NE(Text.find("sepe_trace_occupancy"), std::string::npos);
}

TEST(MetricsRenderTest, AppendsExtraSection) {
  const std::string Text = metrics::renderPrometheus(
      [] { return std::string("extra_metric 42\n"); });
  EXPECT_NE(Text.find("extra_metric 42"), std::string::npos);
}

TEST(MetricsServerTest, ServesPrometheusOverLoopback) {
  metrics::MetricsServer Server;
  // Port 0: the kernel picks a free ephemeral port, so the test never
  // collides with a busy machine.
  ASSERT_TRUE(Server.start(0, [] {
    return std::string("test_server_extra 1\n");
  }));
  ASSERT_NE(Server.port(), 0);
  const std::string Response = httpGet(Server.port());
  EXPECT_NE(Response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Response.find("text/plain"), std::string::npos);
  EXPECT_NE(Response.find("sepe_trace_emitted"), std::string::npos);
  EXPECT_NE(Response.find("test_server_extra 1"), std::string::npos);
  Server.stop();
  EXPECT_GE(Server.requestsServed(), 1u);
  // A second start must work after stop().
  ASSERT_TRUE(Server.start(0));
  EXPECT_NE(httpGet(Server.port()).find("200 OK"), std::string::npos);
  Server.stop();
}

TEST(MetricsServerTest, RootAndMetricsBothServeTheExposition) {
  metrics::MetricsServer Server;
  ASSERT_TRUE(Server.start(0));
  for (const char *Path : {"/", "/metrics", "/metrics?name=x"}) {
    const std::string Response = httpGet(Server.port(), Path);
    EXPECT_NE(Response.find("HTTP/1.1 200 OK"), std::string::npos) << Path;
    EXPECT_NE(Response.find("sepe_trace_emitted"), std::string::npos)
        << Path;
  }
  Server.stop();
}

TEST(MetricsServerTest, UnknownPathGetsA404ListingKnownPaths) {
  metrics::MetricsServer Server;
  Server.registerHandler("/hello", "text/plain", [] {
    return std::string("hi\n");
  });
  ASSERT_TRUE(Server.start(0));
  const std::string Response = httpGet(Server.port(), "/nope");
  EXPECT_NE(Response.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(Response.find("404 not found: /nope"), std::string::npos);
  EXPECT_NE(Response.find("/metrics"), std::string::npos);
  EXPECT_NE(Response.find("/hello"), std::string::npos)
      << "the 404 body lists mounted endpoints";
  Server.stop();
}

TEST(MetricsServerTest, RegisteredHandlerServesItsOwnContentType) {
  metrics::MetricsServer Server;
  int Calls = 0;
  Server.registerHandler("/status.json", "application/json", [&Calls] {
    ++Calls;
    return std::string("{\"ok\":true}\n");
  });
  ASSERT_TRUE(Server.start(0));
  const std::string Response = httpGet(Server.port(), "/status.json");
  EXPECT_NE(Response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Response.find("application/json"), std::string::npos);
  EXPECT_NE(Response.find("{\"ok\":true}"), std::string::npos);
  EXPECT_EQ(Calls, 1);
  // The query string never reaches the route match.
  EXPECT_NE(httpGet(Server.port(), "/status.json?v=1").find("200 OK"),
            std::string::npos);
  EXPECT_EQ(Calls, 2);
  Server.stop();
}

TEST(MetricsServerTest, MountedHandlerOverridesABuiltinPath) {
  metrics::MetricsServer Server;
  Server.registerHandler("/metrics", "text/plain", [] {
    return std::string("custom exposition\n");
  });
  ASSERT_TRUE(Server.start(0));
  const std::string Response = httpGet(Server.port(), "/metrics");
  EXPECT_NE(Response.find("custom exposition"), std::string::npos);
  EXPECT_EQ(Response.find("sepe_trace_emitted"), std::string::npos);
  // "/" still serves the built-in renderer.
  EXPECT_NE(httpGet(Server.port(), "/").find("sepe_trace_emitted"),
            std::string::npos);
  Server.stop();
}

TEST(MetricsSnapshotTest, WritesAndRewritesTheFile) {
  const std::string Path =
      std::string(::testing::TempDir()) + "sepe_metrics_snapshot.prom";
  std::remove(Path.c_str());
  {
    metrics::SnapshotWriter Writer;
    Writer.start(Path, 0.05);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Writer.stop();
    EXPECT_GE(Writer.snapshotsWritten(), 1u);
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "snapshot file must exist after stop()";
  char Buffer[4096];
  const size_t Got = std::fread(Buffer, 1, sizeof(Buffer), F);
  std::fclose(F);
  const std::string Text(Buffer, Got);
  EXPECT_NE(Text.find("sepe_trace_emitted"), std::string::npos);
  std::remove(Path.c_str());
}

} // namespace
