#include "fsi/serve/client.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fsi/obs/trace.hpp"
#include "fsi/util/check.hpp"

namespace fsi::serve {

namespace {

/// Place the server-reported breakdown of \p r onto the client's timeline:
/// the server-side total (queue wait + batch wait + exec) is centred in the
/// RTT slack, which splits the network/serialize overhead evenly between
/// the outbound and return legs.  All spans share the request's trace_id,
/// so chrome://tracing shows the stitched journey.
void record_stitched_spans(const InvertResponse& r, std::int64_t send_ns,
                           std::int64_t recv_ns) {
  obs::record_interval("serve.client.rtt", send_ns, recv_ns, r.trace_id);
  const auto server_ns = static_cast<std::int64_t>(
      r.queue_wait_ns + r.batch_wait_ns + r.exec_ns);
  if (server_ns <= 0) return;  // a pre-queue reject carries no breakdown
  const std::int64_t rtt = recv_ns - send_ns;
  const std::int64_t slack = rtt > server_ns ? rtt - server_ns : 0;
  std::int64_t t = send_ns + slack / 2;
  const auto leg = [&](const char* name, std::uint64_t dur) {
    if (dur == 0) return;
    obs::record_interval(name, t, t + static_cast<std::int64_t>(dur),
                         r.trace_id);
    t += static_cast<std::int64_t>(dur);
  };
  leg("serve.server.queue_wait", r.queue_wait_ns);
  leg("serve.server.batch_wait", r.batch_wait_ns);
  leg("serve.server.exec", r.exec_ns);
}

}  // namespace

struct Client::Impl {
  Socket sock;
  std::thread reader;
  std::atomic<bool> open{false};
  std::mutex write_mu;

  /// One in-flight request: its future's promise plus the send timestamp
  /// the reader needs to record the client-side RTT span.
  struct Inflight {
    std::promise<InvertResponse> promise;
    std::int64_t send_ns = 0;
  };

  std::mutex pending_mu;
  std::map<std::uint64_t, Inflight> pending;
  std::map<std::uint64_t, std::promise<StatsResponse>> pending_stats;
  std::uint64_t next_id = 1;  ///< shared by invert and stats requests

  void reader_loop();
  void fail_all(const std::string& why);
};

void Client::Impl::fail_all(const std::string& why) {
  std::map<std::uint64_t, Inflight> orphaned;
  std::map<std::uint64_t, std::promise<StatsResponse>> orphaned_stats;
  {
    std::lock_guard<std::mutex> lock(pending_mu);
    orphaned.swap(pending);
    orphaned_stats.swap(pending_stats);
  }
  for (auto& [id, inflight] : orphaned) {
    InvertResponse r;
    r.id = id;
    r.status = Status::Error;
    r.message = why;
    inflight.promise.set_value(std::move(r));
  }
  for (auto& [id, promise] : orphaned_stats) {
    promise.set_exception(
        std::make_exception_ptr(std::runtime_error("stats failed: " + why)));
  }
}

void Client::Impl::reader_loop() {
  FrameParser parser;
  std::vector<std::uint8_t> buf(1 << 16);
  std::vector<std::uint8_t> payload;
  std::string why = "connection closed";
  try {
    for (;;) {
      const long got = sock.recv_some(buf.data(), buf.size());
      if (got <= 0) break;
      parser.feed(buf.data(), static_cast<std::size_t>(got));
      while (parser.next(payload)) {
        const std::int64_t recv_ns = obs::now_ns();
        const Decoded d = decode_payload(payload.data(), payload.size());
        if (d.type == MsgType::StatsResponse) {
          std::promise<StatsResponse> promise;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(pending_mu);
            const auto it = pending_stats.find(d.stats.id);
            if (it != pending_stats.end()) {
              promise = std::move(it->second);
              pending_stats.erase(it);
              found = true;
            }
          }
          if (found) promise.set_value(StatsResponse(d.stats));
          continue;
        }
        FSI_CHECK(d.type == MsgType::InvertResponse,
                  "client: server sent a non-response message");
        std::promise<InvertResponse> promise;
        std::int64_t send_ns = 0;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(pending_mu);
          const auto it = pending.find(d.response.id);
          if (it != pending.end()) {
            promise = std::move(it->second.promise);
            send_ns = it->second.send_ns;
            pending.erase(it);
            found = true;
          }
        }
        // id 0: a server-initiated error for an undecodable request; it
        // cannot be matched, so it resolves the oldest outstanding future
        // below via fail_all when the server closes, or is dropped here.
        if (found) {
          if (obs::enabled() && send_ns > 0)
            record_stitched_spans(d.response, send_ns, recv_ns);
          promise.set_value(InvertResponse(d.response));
        }
      }
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  open.store(false, std::memory_order_relaxed);
  fail_all(why);
}

Client::Client(const Endpoint& endpoint) : impl_(std::make_unique<Impl>()) {
  impl_->sock = connect_to(endpoint);
  impl_->open.store(true, std::memory_order_relaxed);
  impl_->reader = std::thread([impl = impl_.get()] { impl->reader_loop(); });
}

Client::~Client() { close(); }

void Client::close() {
  if (impl_ == nullptr) return;
  impl_->open.store(false, std::memory_order_relaxed);
  impl_->sock.shutdown_both();
  if (impl_->reader.joinable()) impl_->reader.join();
  impl_->sock.close();
  impl_->fail_all("client closed");
}

bool Client::connected() const {
  return impl_->open.load(std::memory_order_relaxed);
}

std::future<InvertResponse> Client::submit(InvertRequest request) {
  FSI_CHECK(connected(), "client: connection is closed");
  const std::int64_t send_ns = obs::now_ns();
  request.client_send_ns = send_ns;
  std::future<InvertResponse> future;
  {
    std::lock_guard<std::mutex> lock(impl_->pending_mu);
    request.id = impl_->next_id++;
    // Auto-trace when tracing is on: pid << 32 | id is unique across the
    // clients of one machine, so server-side spans stay attributable.
    if (request.trace_id == 0 && obs::enabled())
      request.trace_id =
          (static_cast<std::uint64_t>(::getpid()) << 32) | request.id;
    auto [it, inserted] = impl_->pending.emplace(
        request.id, Impl::Inflight{std::promise<InvertResponse>(), send_ns});
    FSI_ASSERT(inserted);
    future = it->second.promise.get_future();
  }
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(request));
  bool sent = false;
  {
    std::lock_guard<std::mutex> lock(impl_->write_mu);
    sent = impl_->sock.send_all(frame.data(), frame.size());
  }
  if (!sent) {
    impl_->open.store(false, std::memory_order_relaxed);
    // The reader will fail_all() when recv notices, but resolve this one
    // now in case the reader is blocked on a half-open connection.
    std::promise<InvertResponse> promise;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(impl_->pending_mu);
      const auto it = impl_->pending.find(request.id);
      if (it != impl_->pending.end()) {
        promise = std::move(it->second.promise);
        impl_->pending.erase(it);
        found = true;
      }
    }
    if (found) {
      InvertResponse r;
      r.id = request.id;
      r.status = Status::Error;
      r.message = "send failed: connection closed";
      promise.set_value(std::move(r));
    }
  }
  return future;
}

InvertResponse Client::request(InvertRequest req) {
  return submit(std::move(req)).get();
}

std::future<StatsResponse> Client::submit_stats() {
  FSI_CHECK(connected(), "client: connection is closed");
  std::future<StatsResponse> future;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->pending_mu);
    id = impl_->next_id++;
    auto [it, inserted] =
        impl_->pending_stats.emplace(id, std::promise<StatsResponse>());
    FSI_ASSERT(inserted);
    future = it->second.get_future();
  }
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_stats_request(id));
  bool sent = false;
  {
    std::lock_guard<std::mutex> lock(impl_->write_mu);
    sent = impl_->sock.send_all(frame.data(), frame.size());
  }
  if (!sent) {
    impl_->open.store(false, std::memory_order_relaxed);
    std::promise<StatsResponse> promise;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(impl_->pending_mu);
      const auto it = impl_->pending_stats.find(id);
      if (it != impl_->pending_stats.end()) {
        promise = std::move(it->second);
        impl_->pending_stats.erase(it);
        found = true;
      }
    }
    if (found)
      promise.set_exception(std::make_exception_ptr(
          std::runtime_error("stats failed: send failed")));
  }
  return future;
}

StatsResponse Client::stats() { return submit_stats().get(); }

}  // namespace fsi::serve
