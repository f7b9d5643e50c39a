#include "fsi/serve/protocol.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "fsi/io/wire.hpp"
#include "fsi/precision.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/util/check.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::serve {

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::RetryAfter: return "retry-after";
    case Status::DeadlineMiss: return "deadline-miss";
    case Status::Malformed: return "malformed";
    case Status::ShuttingDown: return "shutting-down";
    case Status::Error: return "error";
  }
  return "unknown";
}

namespace {

void put_header(io::WireWriter& w, MsgType type, std::uint64_t id) {
  w.put_u32(kSchemaVersion);
  w.put_u32(static_cast<std::uint32_t>(type));
  w.put_u64(id);
}

void put_window_stat(io::WireWriter& w, const WindowStat& s) {
  w.put_u64(s.count);
  w.put_f64(s.mean);
  w.put_f64(s.p50);
  w.put_f64(s.p95);
  w.put_f64(s.p99);
}

WindowStat get_window_stat(io::WireReader& r) {
  WindowStat s;
  s.count = r.get_u64();
  s.mean = r.get_f64();
  s.p50 = r.get_f64();
  s.p95 = r.get_f64();
  s.p99 = r.get_f64();
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const InvertRequest& r) {
  io::WireWriter w;
  put_header(w, MsgType::InvertRequest, r.id);
  w.put_u32(r.lx);
  w.put_u32(r.ly);
  w.put_u32(r.l);
  w.put_u32(r.c);
  w.put_i32(r.q);
  w.put_u64(r.seed);
  w.put_f64(r.t);
  w.put_f64(r.u);
  w.put_f64(r.beta);
  w.put_i64(r.deadline_us);
  w.put_u8(r.time_dependent ? 1 : 0);
  w.put_f64_vector(r.field);
  w.put_u64(r.trace_id);
  w.put_i64(r.client_send_ns);
  w.put_u32(r.precision);
  return w.take();
}

std::vector<std::uint8_t> encode_response(const InvertResponse& r) {
  io::WireWriter w;
  put_header(w, MsgType::InvertResponse, r.id);
  w.put_u32(static_cast<std::uint32_t>(r.status));
  w.put_u32(r.retry_after_ms);
  w.put_i32(r.q_used);
  w.put_u8(r.deadline_exceeded ? 1 : 0);
  w.put_u32(r.batch_size);
  w.put_u32(r.l);
  w.put_u32(r.dmax);
  w.put_f64_vector(r.measurements);
  w.put_string(r.message);
  w.put_u64(r.trace_id);
  w.put_u64(r.queue_wait_ns);
  w.put_u64(r.batch_wait_ns);
  w.put_u64(r.exec_ns);
  w.put_f64(r.batch_occupancy);
  w.put_u32(r.precision_used);
  w.put_u8(r.mixed_fallback ? 1 : 0);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_request(std::uint64_t id) {
  io::WireWriter w;
  put_header(w, MsgType::StatsRequest, id);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& r) {
  io::WireWriter w;
  put_header(w, MsgType::StatsResponse, r.id);
  w.put_u64(r.uptime_ns);
  w.put_u64(r.connections);
  w.put_u64(r.admitted);
  w.put_u64(r.served_ok);
  w.put_u64(r.rejected_full);
  w.put_u64(r.deadline_miss);
  w.put_u64(r.cancelled);
  w.put_u64(r.malformed);
  w.put_u64(r.errors);
  w.put_u64(r.shed_shutdown);
  w.put_u64(r.batches);
  w.put_u64(r.batched_requests);
  w.put_u64(r.models_built);
  w.put_u64(r.model_cache_hits);
  w.put_u64(r.model_cache_size);
  w.put_u64(r.queue_depth);
  w.put_u64(r.queue_high_water);
  w.put_u64(r.queue_capacity);
  put_window_stat(w, r.latency_s);
  put_window_stat(w, r.queue_wait_s);
  put_window_stat(w, r.occupancy);
  w.put_string(r.build_version);
  w.put_string(r.build_git_sha);
  w.put_string(r.build_compiler);
  w.put_string(r.build_type);
  w.put_u64(r.rejected_quota);
  w.put_u64(r.replicas);
  w.put_u8(r.adaptive_enabled ? 1 : 0);
  w.put_u64(r.policy_keys);
  w.put_i64(r.policy_window_us);
  w.put_u64(r.policy_max_batch);
  w.put_u8(r.policy_bypass ? 1 : 0);
  w.put_f64(r.policy_speedup);
  w.put_u64(r.bypass_enters);
  w.put_u64(r.bypass_exits);
  w.put_u64(r.mixed_runs);
  w.put_u64(r.mixed_fallbacks);
  w.put_u32(static_cast<std::uint32_t>(r.policy_rows.size()));
  for (const PolicyKeyRow& row : r.policy_rows) {
    w.put_u64(row.key_hash);
    w.put_i64(row.window_us);
    w.put_u64(row.max_batch);
    w.put_u8(row.bypass ? 1 : 0);
    w.put_f64(row.speedup);
  }
  return w.take();
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size) {
  io::WireReader r(data, size);
  const std::uint32_t schema = r.get_u32();
  FSI_CHECK(schema == kSchemaVersion,
            "serve: schema version " + std::to_string(schema) +
                " unsupported (this build speaks " +
                std::to_string(kSchemaVersion) + ")");
  const std::uint32_t type = r.get_u32();
  const std::uint64_t id = r.get_u64();

  Decoded d;
  if (type == static_cast<std::uint32_t>(MsgType::InvertRequest)) {
    d.type = MsgType::InvertRequest;
    InvertRequest& q = d.request;
    q.id = id;
    q.lx = r.get_u32();
    q.ly = r.get_u32();
    q.l = r.get_u32();
    q.c = r.get_u32();
    q.q = r.get_i32();
    q.seed = r.get_u64();
    q.t = r.get_f64();
    q.u = r.get_f64();
    q.beta = r.get_f64();
    q.deadline_us = r.get_i64();
    q.time_dependent = r.get_u8() != 0;
    q.field = r.get_f64_vector();
    q.trace_id = r.get_u64();
    q.client_send_ns = r.get_i64();
    q.precision = r.get_u32();
  } else if (type == static_cast<std::uint32_t>(MsgType::InvertResponse)) {
    d.type = MsgType::InvertResponse;
    InvertResponse& p = d.response;
    p.id = id;
    p.status = static_cast<Status>(r.get_u32());
    FSI_CHECK(p.status <= Status::Error, "serve: unknown response status");
    p.retry_after_ms = r.get_u32();
    p.q_used = r.get_i32();
    p.deadline_exceeded = r.get_u8() != 0;
    p.batch_size = r.get_u32();
    p.l = r.get_u32();
    p.dmax = r.get_u32();
    p.measurements = r.get_f64_vector();
    p.message = r.get_string();
    p.trace_id = r.get_u64();
    p.queue_wait_ns = r.get_u64();
    p.batch_wait_ns = r.get_u64();
    p.exec_ns = r.get_u64();
    p.batch_occupancy = r.get_f64();
    p.precision_used = r.get_u32();
    p.mixed_fallback = r.get_u8() != 0;
  } else if (type == static_cast<std::uint32_t>(MsgType::StatsRequest)) {
    d.type = MsgType::StatsRequest;
    d.stats.id = id;
  } else if (type == static_cast<std::uint32_t>(MsgType::StatsResponse)) {
    d.type = MsgType::StatsResponse;
    StatsResponse& s = d.stats;
    s.id = id;
    s.uptime_ns = r.get_u64();
    s.connections = r.get_u64();
    s.admitted = r.get_u64();
    s.served_ok = r.get_u64();
    s.rejected_full = r.get_u64();
    s.deadline_miss = r.get_u64();
    s.cancelled = r.get_u64();
    s.malformed = r.get_u64();
    s.errors = r.get_u64();
    s.shed_shutdown = r.get_u64();
    s.batches = r.get_u64();
    s.batched_requests = r.get_u64();
    s.models_built = r.get_u64();
    s.model_cache_hits = r.get_u64();
    s.model_cache_size = r.get_u64();
    s.queue_depth = r.get_u64();
    s.queue_high_water = r.get_u64();
    s.queue_capacity = r.get_u64();
    s.latency_s = get_window_stat(r);
    s.queue_wait_s = get_window_stat(r);
    s.occupancy = get_window_stat(r);
    s.build_version = r.get_string();
    s.build_git_sha = r.get_string();
    s.build_compiler = r.get_string();
    s.build_type = r.get_string();
    s.rejected_quota = r.get_u64();
    s.replicas = r.get_u64();
    s.adaptive_enabled = r.get_u8() != 0;
    s.policy_keys = r.get_u64();
    s.policy_window_us = r.get_i64();
    s.policy_max_batch = r.get_u64();
    s.policy_bypass = r.get_u8() != 0;
    s.policy_speedup = r.get_f64();
    s.bypass_enters = r.get_u64();
    s.bypass_exits = r.get_u64();
    s.mixed_runs = r.get_u64();
    s.mixed_fallbacks = r.get_u64();
    const std::uint32_t rows = r.get_u32();
    // The policy table is LRU-bounded server-side (AdaptiveConfig max_keys,
    // default 64); an implausible count is a hostile frame.
    FSI_CHECK(rows <= 4096, "serve: implausible policy-row count " +
                                std::to_string(rows));
    s.policy_rows.resize(rows);
    for (PolicyKeyRow& row : s.policy_rows) {
      row.key_hash = r.get_u64();
      row.window_us = r.get_i64();
      row.max_batch = r.get_u64();
      row.bypass = r.get_u8() != 0;
      row.speedup = r.get_f64();
    }
  } else {
    FSI_CHECK(false, "serve: unknown message type " + std::to_string(type));
  }
  FSI_CHECK(r.exhausted(), "serve: trailing bytes after message body");
  return d;
}

void append_frame(std::vector<std::uint8_t>& out,
                  const std::vector<std::uint8_t>& payload) {
  FSI_CHECK(payload.size() <= kMaxFrameBytes, "serve: frame payload too large");
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const auto append_u32 = [&out](std::uint32_t v) {
    std::uint8_t raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    out.insert(out.end(), raw, raw + sizeof v);
  };
  append_u32(magic);
  append_u32(len);
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameParser::feed(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameParser::next(std::vector<std::uint8_t>& payload) {
  constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);
  if (buffered() < kHeader) return false;
  std::uint32_t magic = 0, len = 0;
  std::memcpy(&magic, buf_.data() + pos_, sizeof magic);
  std::memcpy(&len, buf_.data() + pos_ + sizeof magic, sizeof len);
  FSI_CHECK(magic == kFrameMagic, "serve: bad frame magic");
  FSI_CHECK(len <= max_, "serve: frame length " + std::to_string(len) +
                             " exceeds limit " + std::to_string(max_));
  if (buffered() < kHeader + len) return false;
  payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kHeader),
                 buf_.begin() +
                     static_cast<std::ptrdiff_t>(pos_ + kHeader + len));
  pos_ += kHeader + len;
  return true;
}

std::string validate_request(const InvertRequest& r) {
  std::ostringstream why;
  if (r.lx < 1 || r.ly < 1) {
    why << "lattice extents must be positive (lx=" << r.lx << " ly=" << r.ly
        << ")";
  } else if (r.lx * static_cast<std::uint64_t>(r.ly) > 4096) {
    why << "lattice too large (" << r.lx << "x" << r.ly << ")";
  } else if (r.l < 1 || r.l > 16384) {
    why << "slice count L=" << r.l << " out of range [1, 16384]";
  } else if (r.c != 0 && (r.c > r.l || r.l % r.c != 0)) {
    why << "cluster size c=" << r.c << " does not divide L=" << r.l;
  } else if (r.q >= 0 &&
             static_cast<std::uint32_t>(r.q) >=
                 static_cast<std::uint32_t>(effective_cluster(r))) {
    why << "wrap offset q=" << r.q << " out of [0, c=" << effective_cluster(r)
        << ")";
  } else if (!std::isfinite(r.t) || !std::isfinite(r.u) ||
             !std::isfinite(r.beta) || !(r.beta > 0.0)) {
    why << "non-finite or non-positive physics parameters";
  } else if (r.precision > static_cast<std::uint32_t>(Precision::Mixed)) {
    why << "unknown precision " << r.precision << " (0 = fp64, 1 = mixed)";
  } else if (r.field.size() !=
             static_cast<std::size_t>(r.l) * r.lx * r.ly) {
    why << "field length " << r.field.size() << " != L*N = "
        << static_cast<std::size_t>(r.l) * r.lx * r.ly;
  } else {
    for (double h : r.field) {
      if (h != 1.0 && h != -1.0) {
        why << "field entries must be +-1 (got " << h << ")";
        break;
      }
    }
  }
  return why.str();
}

index_t effective_cluster(const InvertRequest& r) {
  if (r.c > 0) return static_cast<index_t>(r.c);
  return qmc::default_cluster_size(static_cast<index_t>(r.l));
}

index_t resolve_q(const InvertRequest& r, index_t c) {
  if (r.q >= 0) return static_cast<index_t>(r.q);
  util::Rng rng(r.seed, /*stream=*/1);
  return static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
}

std::vector<double> random_field(std::uint32_t lx, std::uint32_t ly,
                                 std::uint32_t l, std::uint64_t seed) {
  util::Rng rng(seed);
  qmc::HsField field(static_cast<index_t>(l),
                     static_cast<index_t>(lx) * static_cast<index_t>(ly), rng);
  return field.serialize();
}

}  // namespace fsi::serve
