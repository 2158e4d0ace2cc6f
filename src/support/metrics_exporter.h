//===- support/metrics_exporter.h - Live metrics egress ---------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pulls the passive observability layers (telemetry registry, trace
/// flight recorder) out of the process while it runs, in Prometheus
/// text-exposition format, through two transports:
///
///   - MetricsServer: a minimal single-threaded HTTP listener on a
///     plain blocking socket (poll + accept, loopback by default, zero
///     dependencies). "/" and "/metrics" answer 200 with the current
///     exposition; additional GET paths can be registered before
///     start() (sepeserve mounts "/plan" and "/quality" this way);
///     anything else gets a 404 with a text body;
///   - SnapshotWriter: a background thread rewriting the same
///     exposition to a file on a fixed interval, for environments
///     where opening a socket is not an option (CI sandboxes,
///     containers without port mappings).
///
/// Both render through renderPrometheus(), which appends
/// flight-recorder gauges (emitted/dropped/occupancy) and an optional
/// caller-supplied block to telemetry::toPrometheus(); sepeserve uses
/// that hook for its live quality gauges and shard contention lines,
/// which keeps this layer free of quality/ and runtime/ includes.
/// Rendering reads only atomics and the registry mutex, so a scrape
/// never blocks the serving path.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_METRICS_EXPORTER_H
#define SEPE_SUPPORT_METRICS_EXPORTER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace sepe::metrics {

/// Extra exposition lines appended per render; must already be valid
/// Prometheus text format (or empty).
using ExtraFn = std::function<std::string()>;

/// telemetry::toPrometheus() + sepe_trace_{emitted,dropped,occupancy}
/// gauges + \p Extra's output (if set).
std::string renderPrometheus(const ExtraFn &Extra = nullptr);

/// One-thread HTTP/1.1 metrics endpoint. start() binds and spawns the
/// accept loop; stop() (or destruction) joins it. Responses are
/// rendered per request, so the endpoint always reflects live state.
class MetricsServer {
public:
  MetricsServer() = default;
  ~MetricsServer() { stop(); }
  MetricsServer(const MetricsServer &) = delete;
  MetricsServer &operator=(const MetricsServer &) = delete;

  /// Binds 127.0.0.1:\p Port (Port 0 lets the kernel pick; see port())
  /// and starts serving. Returns false if the socket can't be set up —
  /// the caller decides whether that is fatal.
  bool start(uint16_t Port, ExtraFn Extra = nullptr);
  void stop();

  /// Mounts a GET endpoint at \p Path (e.g. "/quality"). \p Body is
  /// invoked per request on the serve thread; \p ContentType is sent
  /// verbatim. Must be called before start() — the handler table is
  /// read without locking once the serve loop runs. Registering "/"
  /// or "/metrics" overrides the built-in exposition.
  void registerHandler(std::string Path, std::string ContentType,
                       std::function<std::string()> Body);

  bool running() const { return Running.load(std::memory_order_acquire); }
  /// The bound port (useful with Port 0), 0 when not running.
  uint16_t port() const { return BoundPort; }
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

private:
  struct Endpoint {
    std::string Path;
    std::string ContentType;
    std::function<std::string()> Body;
  };

  void serveLoop();

  std::thread Thread;
  ExtraFn Extra;
  std::vector<Endpoint> Endpoints;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint64_t> Served{0};
  int ListenFd = -1;
  uint16_t BoundPort = 0;
};

/// Periodic exposition-to-file writer. The file is rewritten in place
/// every interval and once more on stop(), so the last snapshot always
/// reflects the final state of the run.
class SnapshotWriter {
public:
  SnapshotWriter() = default;
  ~SnapshotWriter() { stop(); }
  SnapshotWriter(const SnapshotWriter &) = delete;
  SnapshotWriter &operator=(const SnapshotWriter &) = delete;

  /// Starts rewriting \p Path every \p IntervalSec (clamped to >= 50ms).
  void start(std::string Path, double IntervalSec, ExtraFn Extra = nullptr);
  void stop();

  uint64_t snapshotsWritten() const {
    return Written.load(std::memory_order_relaxed);
  }

private:
  void writeLoop(double IntervalSec);
  bool writeOnce();

  std::thread Thread;
  std::string Path;
  ExtraFn Extra;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint64_t> Written{0};
};

} // namespace sepe::metrics

#endif // SEPE_SUPPORT_METRICS_EXPORTER_H
