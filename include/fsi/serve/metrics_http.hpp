#pragma once
/// \file metrics_http.hpp
/// \brief Minimal HTTP/1.1 scrape endpoint for the OpenMetrics exporter.
///
/// A Prometheus (or any OpenMetrics-speaking) scraper wants `GET /metrics`
/// over plain HTTP; the serve wire protocol is framed binary.  This
/// listener bridges the two: a second serve::Listener (fsi_serve --metrics,
/// e.g. "tcp:127.0.0.1:9464") answered by one thread that speaks just
/// enough HTTP/1.1 for scrapers and curl —
///
///   GET /metrics   obs::openmetrics() with the OpenMetrics content type
///   GET /healthz   "ok\n" while the process is up (liveness probe)
///   anything else  404; non-GET methods 405
///
/// Connections are handled serially and closed after one response
/// (`Connection: close`): scrape traffic is one request every few seconds,
/// so a serial loop is simpler and unkillable by design — a slow scraper
/// delays the next scrape, never the inversion plane.  Requests are read
/// with a short poll() timeout and a small header cap so a hung or hostile
/// client cannot pin the thread.
///
/// This sits in fsi::serve (not fsi::obs) because it reuses the serve
/// socket layer; the obs exporter stays transport-free.

#include <cstdint>
#include <memory>

#include "fsi/serve/socket.hpp"

namespace fsi::serve {

/// The scrape listener.  start() binds and spawns the serving thread;
/// stop() (or the destructor) wakes and joins it.
class MetricsExporter {
 public:
  explicit MetricsExporter(Endpoint endpoint);
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Bind the endpoint and launch the serving thread.  Throws
  /// util::CheckError when the endpoint cannot be bound.
  void start();

  /// Stop serving and join (idempotent).
  void stop();

  /// The bound endpoint (TCP port 0 resolved after start()).
  const Endpoint& endpoint() const;

  /// Requests answered so far (any status) — tests poll this.
  std::uint64_t requests_served() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsi::serve
