#ifndef STREAMAGG_OBS_HTTP_LISTENER_H_
#define STREAMAGG_OBS_HTTP_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "util/status.h"

namespace streamagg {

/// A deliberately tiny HTTP/1.1 scrape endpoint — the repo's only
/// network-facing surface. One background thread
/// accepts one connection at a time, answers exactly two routes, and closes:
///
///   GET /metrics  -> 200, the handler's OpenMetrics text
///                    (Content-Type: application/openmetrics-text)
///   GET /healthz  -> 200 "ok\n" (text/plain)
///   anything else -> 404
///
/// This is a scrape target for one Prometheus poller, not a web server: no
/// keep-alive, no TLS, no concurrency, bounded request read. The handler is
/// called per /metrics request on the listener thread, so it may snapshot
/// live state (e.g. TelemetryToOpenMetrics of a fresh snapshot) as long as
/// that is safe off the driver thread.
class MetricsHttpListener {
 public:
  /// Returns the OpenMetrics text body to serve for GET /metrics.
  using MetricsHandler = std::function<std::string()>;

  MetricsHttpListener() = default;
  ~MetricsHttpListener() { Stop(); }
  MetricsHttpListener(const MetricsHttpListener&) = delete;
  MetricsHttpListener& operator=(const MetricsHttpListener&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — see port()) and
  /// starts the accept loop on a background thread. Fails if already
  /// started or the socket can't be bound.
  Status Start(uint16_t port, MetricsHandler handler);

  /// The bound port (resolves port 0); 0 while not started.
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops the accept loop and joins the thread. Idempotent; in-flight
  /// responses finish first (the loop polls its stop flag between
  /// connections, with a short accept timeout).
  void Stop();

 private:
  void Serve();

  MetricsHandler handler_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace streamagg

#endif  // STREAMAGG_OBS_HTTP_LISTENER_H_
