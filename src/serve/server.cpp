#include "fsi/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "fsi/obs/build.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/serve/queue.hpp"
#include "fsi/util/check.hpp"

namespace fsi::serve {

namespace {

/// One live client connection: the socket, a write lock so the batcher and
/// the reader can both answer on it, and the liveness flag the queue's
/// cancellation checks read.
struct Conn {
  Socket sock;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  std::thread reader;
  /// Process-unique connection id; the queue's per-client quota accounting
  /// keys on it.
  std::uint64_t id = 0;
};

/// Reject settings the queue, batcher and deadline arithmetic cannot run
/// with, naming the field and the value.
ServerOptions checked(ServerOptions o) {
  FSI_CHECK(o.queue_depth >= 1, "serve: queue_depth must be >= 1, got " +
                                    std::to_string(o.queue_depth));
  FSI_CHECK(o.max_batch >= 1, "serve: max_batch must be >= 1, got " +
                                  std::to_string(o.max_batch));
  FSI_CHECK(o.batch_window_us >= 0,
            "serve: batch_window_us must be >= 0, got " +
                std::to_string(o.batch_window_us));
  FSI_CHECK(o.default_deadline_ms >= 0,
            "serve: default_deadline_ms must be >= 0, got " +
                std::to_string(o.default_deadline_ms));
  FSI_CHECK(o.replicas >= 1, "serve: replicas must be >= 1, got " +
                                 std::to_string(o.replicas));
  return o;
}

/// Resolve the policy's zero ceilings from the server's static knobs: the
/// adaptive controller tunes *within* the configured window / max batch,
/// it never exceeds them.
AdaptiveConfig resolve_adaptive(const ServerOptions& o) {
  AdaptiveConfig c = o.adaptive;
  if (c.window_ceiling_us == 0) c.window_ceiling_us = o.batch_window_us;
  if (c.max_batch_ceiling == 0) c.max_batch_ceiling = o.max_batch;
  return c;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o)
      : opts(std::move(o)),
        queue(opts.queue_depth, opts.client_quota),
        policy(resolve_adaptive(opts)) {}

  ServerOptions opts;
  AdmissionQueue queue;
  AdaptivePolicy policy;
  std::atomic<std::uint64_t> next_conn_id{1};
  std::optional<Listener> listener;
  Endpoint bound;  ///< resolved at start(); outlives the listener so
                   ///< endpoint() stays valid after stop()
  std::thread accept_thread;
  std::thread batcher_thread;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::int64_t start_ns = 0;  ///< obs::now_ns() at start(); uptime origin

  /// Optional per-request JSONL access log (ServerOptions::access_log).
  std::mutex log_mu;
  std::FILE* access_log = nullptr;

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Conn>> conns;

  mutable std::mutex stats_mu;
  ServerStats stats;
  std::vector<double> ok_latencies_s;  ///< one entry per Ok response

  /// Batcher-thread-only cache: one HubbardModel per batch key, so repeated
  /// batches of the same shape skip the matrix-exponential setup.  LRU at
  /// the front, bounded — the key holds client-supplied doubles (t, u,
  /// beta), so an unbounded map would let a parameter-sweeping (or hostile)
  /// client grow server memory without limit.
  static constexpr std::size_t kModelCacheCap = 8;
  std::list<std::pair<BatchKey, std::unique_ptr<qmc::HubbardModel>>> models;

  // ---------------------------------------------------------------------
  void send_response(const std::shared_ptr<Conn>& conn, InvertResponse&& r);
  void log_response(const InvertResponse& r);
  void handle_payload(const std::shared_ptr<Conn>& conn,
                      const std::vector<std::uint8_t>& payload);
  void process_request(const std::shared_ptr<Conn>& conn, InvertRequest&& req);
  StatsResponse build_stats(std::uint64_t id);
  void reader_loop(std::shared_ptr<Conn> conn);
  void accept_loop();
  void batcher_loop();
  void run_batch(std::vector<PendingRequest>&& batch);
  const qmc::HubbardModel& model_for(const BatchKey& key);

  void count(std::uint64_t ServerStats::* field) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++(stats.*field);
  }
};

void Server::Impl::send_response(const std::shared_ptr<Conn>& conn,
                                 InvertResponse&& r) {
  log_response(r);
  obs::Span span("serve.serialize");
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_response(r));
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_relaxed)) return;
  if (!conn->sock.send_all(frame.data(), frame.size()))
    conn->open.store(false, std::memory_order_relaxed);
}

void Server::Impl::log_response(const InvertResponse& r) {
  if (access_log == nullptr) return;
  // Wall-clock stamp (the rest of the serve path uses the monotonic clock,
  // which is meaningless across processes in a log file).
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::lock_guard<std::mutex> lock(log_mu);
  std::fprintf(
      access_log,
      "{\"ts_us\":%lld,\"id\":%llu,\"trace_id\":%llu,\"status\":\"%s\","
      "\"queue_wait_ns\":%llu,\"batch_wait_ns\":%llu,\"exec_ns\":%llu,"
      "\"batch_size\":%u,\"occupancy\":%.4f}\n",
      static_cast<long long>(wall), static_cast<unsigned long long>(r.id),
      static_cast<unsigned long long>(r.trace_id), status_name(r.status),
      static_cast<unsigned long long>(r.queue_wait_ns),
      static_cast<unsigned long long>(r.batch_wait_ns),
      static_cast<unsigned long long>(r.exec_ns), r.batch_size,
      r.batch_occupancy);
  std::fflush(access_log);  // tail -f sees complete lines
}

void Server::Impl::handle_payload(const std::shared_ptr<Conn>& conn,
                                  const std::vector<std::uint8_t>& payload) {
  Decoded d;
  try {
    d = decode_payload(payload.data(), payload.size());
  } catch (const util::CheckError& e) {
    // Another schema version or a malformed body.  The frame boundary is
    // intact, so the connection survives; the client learns why its request
    // died.
    count(&ServerStats::malformed);
    obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
    FSI_LOG_WARN("serve.malformed", {"reason", e.what()});
    InvertResponse r;
    r.id = 0;
    r.status = Status::Malformed;
    r.message = e.what();
    send_response(conn, std::move(r));
    return;
  }
  if (d.type == MsgType::StatsRequest) {
    StatsResponse s = build_stats(d.stats.id);
    std::vector<std::uint8_t> frame;
    append_frame(frame, encode_stats_response(s));
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!conn->open.load(std::memory_order_relaxed)) return;
    if (!conn->sock.send_all(frame.data(), frame.size()))
      conn->open.store(false, std::memory_order_relaxed);
    return;
  }
  if (d.type != MsgType::InvertRequest) {
    count(&ServerStats::malformed);
    obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
    FSI_LOG_WARN("serve.malformed",
                 {"reason", "unsupported message type"},
                 {"type", static_cast<unsigned>(d.type)});
    InvertResponse r;
    r.id = 0;
    r.status = Status::Malformed;
    r.message = "server accepts InvertRequest and StatsRequest messages only";
    send_response(conn, std::move(r));
    return;
  }
  process_request(conn, std::move(d.request));
}

void Server::Impl::process_request(const std::shared_ptr<Conn>& conn,
                                   InvertRequest&& req) {
  const std::int64_t arrival_ns = obs::now_ns();
  InvertResponse reject;
  reject.id = req.id;
  reject.trace_id = req.trace_id;

  if (stopping.load()) {
    count(&ServerStats::shed_shutdown);
    reject.status = Status::ShuttingDown;
    send_response(conn, std::move(reject));
    return;
  }

  const std::string why = validate_request(req);
  if (!why.empty()) {
    count(&ServerStats::malformed);
    obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
    FSI_LOG_WARN("serve.malformed", {"id", req.id}, {"reason", why});
    reject.status = Status::Malformed;
    reject.message = why;
    send_response(conn, std::move(reject));
    return;
  }

  // Deadline: relative microsecond budget stamped at arrival.  A
  // non-positive budget (other than "none") is already expired — reject
  // before it can consume a queue slot.
  std::int64_t deadline_us = req.deadline_us;
  if (deadline_us == 0 && opts.default_deadline_ms > 0)
    deadline_us = opts.default_deadline_ms * 1000;
  // Clamp before converting to ns: a huge client-supplied budget (up to
  // INT64_MAX) would overflow `arrival_ns + deadline_us * 1000` — signed
  // overflow is UB and the wrapped deadline would expire instantly.
  constexpr std::int64_t kMaxDeadlineUs = 86'400'000'000;  // 24 h
  deadline_us = std::min(deadline_us, kMaxDeadlineUs);
  if (req.deadline_us < 0) {
    count(&ServerStats::deadline_miss);
    obs::metrics::add(obs::metrics::Counter::ServeDeadlineMiss, 1);
    FSI_LOG_WARN("serve.deadline_miss", {"id", req.id},
                 {"reason", "expired on arrival"});
    reject.status = Status::DeadlineMiss;
    reject.message = "deadline expired on arrival";
    send_response(conn, std::move(reject));
    return;
  }

  PendingRequest p;
  p.c = effective_cluster(req);
  p.q = resolve_q(req, p.c);
  p.client_id = conn->id;
  p.arrival_ns = arrival_ns;
  p.deadline_ns = deadline_us > 0 ? arrival_ns + deadline_us * 1000 : 0;
  p.request = std::move(req);
  std::weak_ptr<Conn> weak = conn;
  p.alive = [weak] {
    const auto c = weak.lock();
    return c != nullptr && c->open.load(std::memory_order_relaxed);
  };
  p.respond = [this, weak](InvertResponse&& r) {
    if (const auto c = weak.lock()) send_response(c, std::move(r));
  };

  const Admit verdict = queue.admit(std::move(p));
  if (verdict != Admit::Ok) {
    // Explicit backpressure: the queue is the only buffer and it is full —
    // or this one client already holds its fair share of it.  Either way
    // the client gets RetryAfter, never a silent stall.
    const bool quota = verdict == Admit::OverQuota;
    count(quota ? &ServerStats::rejected_quota : &ServerStats::rejected_full);
    obs::metrics::add(quota ? obs::metrics::Counter::ServeQuotaRejected
                            : obs::metrics::Counter::ServeRejected,
                      1);
    FSI_LOG_WARN("serve.shed",
                 {"reason", quota ? "client over quota" : "admission queue full"},
                 {"depth", static_cast<unsigned long long>(queue.depth())},
                 {"retry_after_ms", opts.retry_after_ms});
    reject.status = Status::RetryAfter;
    reject.retry_after_ms = opts.retry_after_ms;
    reject.message = quota ? "client over per-connection quota"
                           : "admission queue full";
    send_response(conn, std::move(reject));
    return;
  }
  count(&ServerStats::admitted);
  obs::metrics::add(obs::metrics::Counter::ServeRequests, 1);
}

void Server::Impl::reader_loop(std::shared_ptr<Conn> conn) {
  FrameParser parser;
  std::vector<std::uint8_t> buf(1 << 16);
  std::vector<std::uint8_t> payload;
  bool fatal = false;
  while (!fatal) {
    const long got = conn->sock.recv_some(buf.data(), buf.size());
    if (got <= 0) break;  // disconnect (or error): cancellation path
    parser.feed(buf.data(), static_cast<std::size_t>(got));
    for (;;) {
      bool have = false;
      try {
        have = parser.next(payload);
      } catch (const util::CheckError& e) {
        // Bad magic or oversized frame: the stream cannot be resynchronised.
        // Tell the client why (best effort), then drop the connection.
        count(&ServerStats::malformed);
        obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
        FSI_LOG_WARN("serve.frame_error", {"reason", e.what()});
        InvertResponse r;
        r.status = Status::Malformed;
        r.message = e.what();
        send_response(conn, std::move(r));
        fatal = true;
        break;
      }
      if (!have) break;
      try {
        handle_payload(conn, payload);
      } catch (const std::exception& e) {
        // Defense in depth: handle_payload answers protocol errors itself,
        // so anything reaching here (e.g. std::bad_alloc from a hostile
        // frame) is unexpected — never let it escape the thread and
        // std::terminate the daemon.  Answer and drop the connection.
        count(&ServerStats::malformed);
        obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
        FSI_LOG_ERROR("serve.handler_error", {"reason", e.what()});
        InvertResponse r;
        r.status = Status::Malformed;
        r.message = e.what();
        send_response(conn, std::move(r));
        fatal = true;
        break;
      }
    }
  }
  conn->open.store(false, std::memory_order_relaxed);
  conn->sock.shutdown_both();
  FSI_LOG_DEBUG("serve.disconnect");
}

void Server::Impl::accept_loop() {
  for (;;) {
    Socket s = listener->accept_once();
    if (stopping.load()) return;
    if (!s.valid()) continue;

    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(s);
    conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
    count(&ServerStats::connections);
    FSI_LOG_DEBUG("serve.accept");
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      // Reap connections whose reader already finished, so a long-lived
      // daemon does not accumulate dead Conn entries.
      for (auto it = conns.begin(); it != conns.end();) {
        if (!(*it)->open.load() && (*it)->reader.joinable()) {
          (*it)->reader.join();
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      conns.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

const qmc::HubbardModel& Server::Impl::model_for(const BatchKey& key) {
  for (auto it = models.begin(); it != models.end(); ++it) {
    if (it->first == key) {
      models.splice(models.begin(), models, it);  // mark most-recently-used
      count(&ServerStats::model_cache_hits);
      return *models.front().second;
    }
  }
  qmc::Lattice lat = key.ly == 1
                         ? qmc::Lattice::chain(static_cast<index_t>(key.lx))
                         : qmc::Lattice::rectangle(
                               static_cast<index_t>(key.lx),
                               static_cast<index_t>(key.ly));
  qmc::HubbardParams params;
  params.t = key.t;
  params.u = key.u;
  params.beta = key.beta;
  params.l = static_cast<index_t>(key.l);
  models.emplace_front(
      key, std::make_unique<qmc::HubbardModel>(std::move(lat), params));
  if (models.size() > kModelCacheCap) models.pop_back();
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++stats.models_built;
    stats.model_cache_size = models.size();
  }
  return *models.front().second;
}

void Server::Impl::run_batch(std::vector<PendingRequest>&& batch) {
  const std::int64_t dispatch_ns = obs::now_ns();

  // Filter: clients that vanished while queued, deadlines that expired.
  std::vector<PendingRequest> live;
  live.reserve(batch.size());
  for (PendingRequest& p : batch) {
    if (!p.alive()) {
      count(&ServerStats::cancelled);
      obs::metrics::add(obs::metrics::Counter::ServeCancelled, 1);
      continue;
    }
    if (stopping.load()) {
      count(&ServerStats::shed_shutdown);
      InvertResponse r;
      r.id = p.request.id;
      r.status = Status::ShuttingDown;
      p.respond(std::move(r));
      continue;
    }
    if (p.expired(dispatch_ns)) {
      count(&ServerStats::deadline_miss);
      obs::metrics::add(obs::metrics::Counter::ServeDeadlineMiss, 1);
      InvertResponse r;
      r.id = p.request.id;
      r.trace_id = p.request.trace_id;
      r.status = Status::DeadlineMiss;
      r.queue_wait_ns = static_cast<std::uint64_t>(
          (p.popped_ns > 0 ? p.popped_ns : dispatch_ns) - p.arrival_ns);
      r.message = "deadline expired while queued";
      p.respond(std::move(r));
      continue;
    }
    live.push_back(std::move(p));
  }
  if (live.empty()) return;

  // Observability: the batch-formation interval (first arrival ->
  // dispatch); per-request spans are recorded after the engine runs, once
  // the full timing breakdown is known.
  std::int64_t first_arrival = live.front().arrival_ns;
  for (const PendingRequest& p : live)
    first_arrival = std::min(first_arrival, p.arrival_ns);
  obs::record_interval("serve.batch_form", first_arrival, dispatch_ns);

  const BatchKey key = live.front().key();
  const qmc::HubbardModel& model = model_for(key);

  std::vector<qmc::FsiBatchTask> tasks;
  tasks.reserve(live.size());
  const index_t n = model.num_sites();
  for (const PendingRequest& p : live) {
    tasks.push_back(qmc::FsiBatchTask{
        qmc::HsField::deserialize(static_cast<index_t>(key.l), n,
                                  p.request.field.data(),
                                  p.request.field.size()),
        p.q, p.request.time_dependent});
  }

  qmc::FsiBatchOptions batch_opts = opts.batch;
  batch_opts.cluster_size = key.c;
  // The batch runs at the requested precision (part of the BatchKey, so a
  // batch is homogeneous).  An out-of-range value cannot reach here —
  // validate_request rejected it — so the fallback to Fp64 is defensive.
  Precision prec = Precision::Fp64;
  (void)precision_from_u32(key.precision, prec);
  batch_opts.precision = prec;

  // Tag the engine's per-node executor spans (recorded on pool threads)
  // with this batch's trace: exactly one batch runs at a time (single
  // batcher thread), so the process-wide active-trace id is exact.  The
  // first traced request of the batch lends its id to the shared run.
  std::uint64_t batch_trace = 0;
  for (const PendingRequest& p : live) {
    if (p.request.trace_id != 0) {
      batch_trace = p.request.trace_id;
      break;
    }
  }

  std::vector<qmc::Measurements> results;
  std::string engine_error;
  qmc::SchedSummary engine_sched;  // mixed-task telemetry of the run
  obs::set_active_trace(batch_trace);
  const std::int64_t exec_t0 = obs::now_ns();
  try {
    obs::Span span("serve.execute");
    results = opts.engine
                  ? opts.engine(model, tasks, batch_opts)
                  : qmc::run_fsi_batch(model, tasks, batch_opts,
                                       &engine_sched);
    FSI_CHECK(results.size() == tasks.size(),
              "serve: engine returned wrong result count");
  } catch (const std::exception& e) {
    engine_error = e.what();
    FSI_LOG_ERROR("serve.engine_error", {"reason", engine_error},
                  {"batch_size", static_cast<unsigned long long>(live.size())});
  }
  const std::int64_t exec_t1 = obs::now_ns();
  obs::set_active_trace(0);
  const auto exec_ns = static_cast<std::uint64_t>(exec_t1 - exec_t0);
  const double occupancy = static_cast<double>(live.size()) /
                           static_cast<double>(opts.max_batch);

  {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++stats.batches;
    stats.batched_requests += live.size();
    stats.queue_high_water =
        std::max(stats.queue_high_water, queue.max_depth_seen());
  }
  obs::metrics::add(obs::metrics::Counter::ServeBatches, 1);
  obs::metrics::record_windowed(obs::metrics::Hist::ServeBatchOccupancy,
                                occupancy);

  // Close the adaptive loop: what this batch actually cost.  The straggler
  // wait paid is dispatch minus the moment the queue first gathered a
  // request (a batch that filled instantly was never charged the window).
  {
    std::int64_t first_popped = dispatch_ns;
    for (const PendingRequest& p : live)
      if (p.popped_ns > 0) first_popped = std::min(first_popped, p.popped_ns);
    BatchObservation ob;
    ob.batch_size = live.size();
    ob.queue_depth_after = queue.depth();
    ob.window_wait_ns = dispatch_ns - first_popped;
    ob.exec_ns = exec_t1 - exec_t0;
    policy.observe(key, ob);
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    PendingRequest& p = live[i];
    // The ns breakdown: queue wait ends when the queue gathered the request
    // (popped_ns), batch wait covers the straggler window + model/task
    // setup, exec is the shared engine run.
    const std::int64_t popped_ns =
        p.popped_ns > 0 ? p.popped_ns : dispatch_ns;
    InvertResponse r;
    r.id = p.request.id;
    r.trace_id = p.request.trace_id;
    r.q_used = static_cast<std::int32_t>(p.q);
    r.batch_size = static_cast<std::uint32_t>(live.size());
    r.queue_wait_ns = static_cast<std::uint64_t>(popped_ns - p.arrival_ns);
    r.batch_wait_ns = static_cast<std::uint64_t>(exec_t0 - popped_ns);
    r.exec_ns = exec_ns;
    r.batch_occupancy = occupancy;
    r.precision_used = key.precision;
    r.mixed_fallback = engine_sched.mixed_fallbacks > 0;
    obs::metrics::record_windowed(
        obs::metrics::Hist::ServeQueueWait,
        static_cast<double>(popped_ns - p.arrival_ns) * 1e-9);
    obs::record_interval("serve.queue_wait", p.arrival_ns, popped_ns,
                         p.request.trace_id);
    obs::record_interval("serve.batch_wait", popped_ns, exec_t0,
                         p.request.trace_id);
    if (!engine_error.empty()) {
      count(&ServerStats::errors);
      obs::metrics::add(obs::metrics::Counter::ServeErrors, 1);
      r.status = Status::Error;
      r.message = engine_error;
    } else {
      r.status = Status::Ok;
      r.l = key.l;
      r.dmax =
          static_cast<std::uint32_t>(results[i].num_distance_classes());
      r.measurements = results[i].serialize();
      r.deadline_exceeded = p.deadline_ns != 0 && exec_t1 >= p.deadline_ns;
      const double latency_s =
          static_cast<double>(exec_t1 - p.arrival_ns) * 1e-9;
      obs::metrics::record_windowed(obs::metrics::Hist::ServeLatency,
                                    latency_s);
      obs::record_interval("serve.request", p.arrival_ns, exec_t1,
                           p.request.trace_id);
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.served_ok;
        ok_latencies_s.push_back(latency_s);
      }
    }
    p.respond(std::move(r));
  }
}

StatsResponse Server::Impl::build_stats(std::uint64_t id) {
  StatsResponse s;
  s.id = id;
  if (start_ns > 0)
    s.uptime_ns = static_cast<std::uint64_t>(obs::now_ns() - start_ns);
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    s.connections = stats.connections;
    s.admitted = stats.admitted;
    s.served_ok = stats.served_ok;
    s.rejected_full = stats.rejected_full;
    s.rejected_quota = stats.rejected_quota;
    s.deadline_miss = stats.deadline_miss;
    s.cancelled = stats.cancelled;
    s.malformed = stats.malformed;
    s.errors = stats.errors;
    s.shed_shutdown = stats.shed_shutdown;
    s.batches = stats.batches;
    s.batched_requests = stats.batched_requests;
    s.models_built = stats.models_built;
    s.model_cache_hits = stats.model_cache_hits;
    s.model_cache_size = stats.model_cache_size;
    s.queue_high_water = stats.queue_high_water;
  }
  s.queue_depth = queue.depth();
  s.queue_high_water = std::max<std::uint64_t>(
      s.queue_high_water, queue.max_depth_seen());
  s.queue_capacity = queue.max_depth();

  const auto window_of = [](obs::metrics::Hist h) {
    const obs::metrics::WindowSnapshot ws = obs::metrics::window(h);
    WindowStat out;
    out.count = ws.count;
    out.mean = ws.mean();
    out.p50 = ws.p50;
    out.p95 = ws.p95;
    out.p99 = ws.p99;
    return out;
  };
  s.latency_s = window_of(obs::metrics::Hist::ServeLatency);
  s.queue_wait_s = window_of(obs::metrics::Hist::ServeQueueWait);
  s.occupancy = window_of(obs::metrics::Hist::ServeBatchOccupancy);
  const obs::BuildInfo& b = obs::build_info();
  s.build_version = b.version;
  s.build_git_sha = b.git_sha;
  s.build_compiler = b.compiler;
  s.build_type = b.build_type;

  // Live adaptive-policy state of the most recently dispatched key — what
  // fsi_top renders and the tuning guide reads.
  s.replicas = opts.replicas;
  s.adaptive_enabled = policy.config().enabled;
  s.policy_keys = policy.keys();
  const KeyPolicy active = policy.active_state();
  s.policy_window_us = active.window_us;
  s.policy_max_batch = active.max_batch;
  s.policy_bypass = active.bypass;
  s.policy_speedup = active.speedup;
  s.bypass_enters = policy.bypass_enters();
  s.bypass_exits = policy.bypass_exits();

  // Mixed-precision totals (process-wide metrics counters, the same series
  // the OpenMetrics exporter publishes) and the full per-key policy table,
  // LRU order.
  s.mixed_runs = obs::metrics::total(obs::metrics::Counter::MixedRuns);
  s.mixed_fallbacks =
      obs::metrics::total(obs::metrics::Counter::MixedFallbacks);
  for (const auto& [key, state] : policy.snapshot()) {
    PolicyKeyRow row;
    row.key_hash = hash(key);
    row.window_us = state.window_us;
    row.max_batch = state.max_batch;
    row.bypass = state.bypass;
    row.speedup = state.speedup;
    s.policy_rows.push_back(row);
  }
  return s;
}

void Server::Impl::batcher_loop() {
  // The policy is consulted per batch with the key about to dispatch; when
  // adaptive tuning is disabled its plan() degenerates to the static knobs.
  const auto planner = [this](const BatchKey& key) { return policy.plan(key); };
  for (;;) {
    std::vector<PendingRequest> batch = queue.next_batch(planner);
    if (batch.empty()) return;  // shutdown with an empty queue
    run_batch(std::move(batch));
  }
}

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(checked(std::move(options)))) {}

Server::~Server() { stop(); }

void Server::start() {
  FSI_CHECK(!impl_->started.load(), "serve: start() called twice");
  if (!impl_->opts.access_log.empty()) {
    impl_->access_log = std::fopen(impl_->opts.access_log.c_str(), "a");
    FSI_CHECK(impl_->access_log != nullptr,
              "serve: cannot open access log: " + impl_->opts.access_log);
  }
  impl_->listener.emplace(Listener::listen_on(impl_->opts.endpoint, 16,
                                              impl_->opts.reuse_port));
  impl_->bound = impl_->listener->endpoint();
  impl_->start_ns = obs::now_ns();
  obs::metrics::set(obs::metrics::Gauge::ServeReplicas,
                    static_cast<double>(impl_->opts.replicas));
  impl_->started.store(true);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  impl_->batcher_thread = std::thread([this] { impl_->batcher_loop(); });
  FSI_LOG_INFO(
      "serve.start", {"endpoint", impl_->bound.describe()},
      {"queue_depth", static_cast<unsigned long long>(impl_->opts.queue_depth)},
      {"max_batch", static_cast<unsigned long long>(impl_->opts.max_batch)},
      {"git_sha", obs::build_info().git_sha});
}

void Server::stop() {
  if (!impl_->started.load()) return;
  if (impl_->stopping.exchange(true)) {
    // Second caller (e.g. the destructor after an explicit stop()): the
    // first stop() already joined everything.
    return;
  }
  // 1. The batcher answers remaining queued requests with ShuttingDown
  //    (run_batch's stopping check) and exits once the queue is empty.
  impl_->queue.shutdown();
  if (impl_->batcher_thread.joinable()) impl_->batcher_thread.join();
  // 2. Unblock and join the accept loop.
  impl_->listener->wake();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // 3. Close every connection and join its reader.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    conns.swap(impl_->conns);
  }
  for (const auto& conn : conns) {
    conn->open.store(false, std::memory_order_relaxed);
    conn->sock.shutdown_both();
    if (conn->reader.joinable()) conn->reader.join();
  }
  impl_->listener.reset();
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mu);
    FSI_LOG_INFO(
        "serve.stop",
        {"served_ok", static_cast<unsigned long long>(impl_->stats.served_ok)},
        {"shed", static_cast<unsigned long long>(impl_->stats.rejected_full)},
        {"errors", static_cast<unsigned long long>(impl_->stats.errors)});
  }
  if (impl_->access_log != nullptr) {
    std::lock_guard<std::mutex> lock(impl_->log_mu);
    std::fclose(impl_->access_log);
    impl_->access_log = nullptr;
  }
}

const Endpoint& Server::endpoint() const {
  FSI_CHECK(impl_->started.load(), "serve: server not started");
  return impl_->bound;
}

StatsResponse Server::stats_snapshot() const {
  return impl_->build_stats(0);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  ServerStats s = impl_->stats;
  s.queue_high_water =
      std::max(s.queue_high_water, impl_->queue.max_depth_seen());
  return s;
}

const AdaptivePolicy& Server::policy() const { return impl_->policy; }

double Server::latency_quantile(double p) const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  if (impl_->ok_latencies_s.empty()) return 0.0;
  std::vector<double> sorted = impl_->ok_latencies_s;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(1.0, std::max(0.0, p));
  const auto idx = static_cast<std::size_t>(
      clamped * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx];
}

}  // namespace fsi::serve
