#pragma once
/// \file server.hpp
/// \brief The long-lived inversion daemon: accept loop, admission control,
/// request batching and deadline handling.
///
/// Thread structure (see docs/serving.md for the full lifecycle):
///   - one *accept* thread blocking in Listener::accept_once();
///   - one *reader* thread per connection: splits frames, decodes and
///     validates requests, resolves c and q, and admits them to the
///     AdmissionQueue (or answers RetryAfter / DeadlineMiss / Malformed
///     inline — rejects never consume queue slots or engine time);
///   - one *batcher* thread: pops coalesced same-key batches from the
///     queue, filters requests whose deadline expired or whose client
///     disconnected while queued, builds (or reuses) the qmc::HubbardModel
///     for the batch key, runs the engine — by default
///     qmc::run_fsi_batch on the persistent executor pool — and writes one
///     response per surviving request.
///
/// Responses are written under a per-connection mutex, so a client may
/// pipeline many requests over one connection and receive answers as the
/// batches complete (responses carry the request id; order is not
/// guaranteed across batches).
///
/// Overload behaviour is explicit by construction: the queue is the only
/// buffer, it is bounded, and a full queue turns into RetryAfter responses
/// with a suggested backoff — never into unbounded memory or a silent
/// stall.  Every outcome is counted in obs::metrics (serve_requests,
/// serve_rejected, serve_deadline_miss, ...) and latencies are recorded
/// into the serve_latency_s / serve_queue_wait_s histograms, which the
/// telemetry JSON exports.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fsi/qmc/multi_gf.hpp"
#include "fsi/serve/policy.hpp"
#include "fsi/serve/protocol.hpp"
#include "fsi/serve/socket.hpp"

namespace fsi::serve {

/// Pluggable inversion engine (test seam: overload and shutdown tests
/// substitute a deterministic stub; production uses qmc::run_fsi_batch).
using Engine = std::function<std::vector<qmc::Measurements>(
    const qmc::HubbardModel&, const std::vector<qmc::FsiBatchTask>&,
    const qmc::FsiBatchOptions&)>;

/// Server configuration.  The fsi_serve tool sets these from its flags
/// (docs/serving.md); the Server constructor rejects out-of-range values.
struct ServerOptions {
  Endpoint endpoint = Endpoint{true, "fsi_serve.sock", "", 0};
  std::size_t queue_depth = 64;       ///< admission-queue bound
  std::int64_t batch_window_us = 2000;///< straggler wait when forming a batch
  std::size_t max_batch = 8;          ///< max requests coalesced per batch
  std::uint32_t retry_after_ms = 50;  ///< backoff hint in RetryAfter rejects
  std::int64_t default_deadline_ms = 0;  ///< applied when a request has none
  /// Per-request JSONL access log path ("" = off): one line per response
  /// with id, trace_id, status, timing breakdown and batch occupancy —
  /// appended, flushed per line, so `tail -f` works on a live daemon.
  std::string access_log;
  /// OpenMetrics scrape endpoint spec ("" = off), e.g. "tcp:127.0.0.1:9464".
  /// The fsi_serve tool starts a serve::MetricsExporter here so standard
  /// Prometheus infrastructure can watch the daemon (see metrics_http.hpp).
  std::string metrics_endpoint;
  /// Adaptive batching (see policy.hpp): zero ceilings resolve to
  /// batch_window_us / max_batch, so the static knobs stay the upper bound
  /// and `adaptive.enabled = false` restores the fixed-window behaviour.
  AdaptiveConfig adaptive;
  /// Per-client queued-slot quota (AdmissionQueue fairness): one connection
  /// may hold at most this many queue slots; over-quota requests are shed
  /// with RetryAfter instead of starving other clients.  0 = no quota.
  std::size_t client_quota = 0;
  /// Replica count this daemon *reports* (stats/gauge; the fsi_serve tool
  /// runs that many Server instances sharing one TCP port via reuse_port).
  std::size_t replicas = 1;
  /// Set SO_REUSEPORT on a tcp: endpoint so sibling replicas can bind the
  /// same port (rejected for unix: endpoints at start()).
  bool reuse_port = false;
  qmc::FsiBatchOptions batch;         ///< executor knobs of the engine runs
  Engine engine;                      ///< null = qmc::run_fsi_batch
};

/// Lifetime aggregate counters of one Server (monotonic; also mirrored
/// into obs::metrics for the telemetry export).
struct ServerStats {
  std::uint64_t connections = 0;    ///< connections accepted
  std::uint64_t admitted = 0;       ///< requests admitted to the queue
  std::uint64_t served_ok = 0;      ///< Ok responses
  std::uint64_t rejected_full = 0;  ///< RetryAfter responses (queue full)
  std::uint64_t rejected_quota = 0; ///< RetryAfter responses (client quota)
  std::uint64_t deadline_miss = 0;  ///< DeadlineMiss responses
  std::uint64_t cancelled = 0;      ///< dropped: client gone before dispatch
  std::uint64_t malformed = 0;      ///< Malformed responses
  std::uint64_t errors = 0;         ///< Error responses
  std::uint64_t shed_shutdown = 0;  ///< ShuttingDown responses at stop()
  std::uint64_t batches = 0;        ///< engine batches dispatched
  std::uint64_t batched_requests = 0;  ///< requests carried by those batches
  std::size_t queue_high_water = 0; ///< max queue depth observed
  std::uint64_t models_built = 0;   ///< HubbardModel constructions (cache misses)
  std::uint64_t model_cache_hits = 0;  ///< batches served from the cache
  std::size_t model_cache_size = 0; ///< current model-cache entries (bounded)

  double batch_occupancy_mean() const {
    return batches > 0
               ? static_cast<double>(batched_requests) /
                     static_cast<double>(batches)
               : 0.0;
  }
};

/// The daemon.  start() spawns the threads and returns; stop() (or the
/// destructor) wakes everything, answers queued requests with
/// ShuttingDown, and joins.
class Server {
 public:
  /// Throws util::CheckError unless queue_depth, max_batch and replicas
  /// are >= 1 and batch_window_us and default_deadline_ms are >= 0.
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the endpoint and launch the accept + batcher threads.
  /// Throws util::CheckError if the endpoint cannot be bound.
  void start();

  /// Graceful stop: no new connections, queued requests answered
  /// ShuttingDown, in-flight batch finished, threads joined.  Idempotent.
  void stop();

  /// The bound endpoint (TCP port 0 resolved after start()).
  const Endpoint& endpoint() const;

  ServerStats stats() const;

  /// The live introspection snapshot the daemon answers to a StatsRequest:
  /// lifetime counters, queue gauges, model-cache hit rate, uptime, and
  /// rolling-window latency / queue-wait / occupancy percentiles.  Safe to
  /// call from any thread while the server runs.
  StatsResponse stats_snapshot() const;

  /// Latency percentile (seconds) over all Ok responses so far;
  /// \p p in [0, 1].  Returns 0 when nothing was served.
  double latency_quantile(double p) const;

  /// The adaptive batching controller (live; see policy.hpp).  Tests and
  /// tools read per-key tuning state through it.
  const AdaptivePolicy& policy() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsi::serve
