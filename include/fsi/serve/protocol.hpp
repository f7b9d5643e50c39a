#pragma once
/// \file protocol.hpp
/// \brief Wire protocol of the fsi::serve inversion service.
///
/// A client ships a Hubbard-Stratonovich field configuration plus the model
/// parameters that define its Hubbard matrices; the server answers with the
/// measurement quantities computed from the selected inversion (paper
/// Alg. 3's "fields travel, matrices don't" trade, applied across process
/// boundaries).  Framing is length-prefixed:
///
///   [u32 magic "FSRV"] [u32 payload bytes] [payload]
///
/// and every payload is stamped with the one schema this build speaks:
///
///   [u32 schema version] [u32 message type] [u64 request id] [body ...]
///
/// Payload encoding reuses io::WireWriter / io::WireReader (native byte
/// order, bounds-checked decode — see io/wire.hpp for the interchange
/// caveat).  A frame with a bad magic or an implausible length is
/// unrecoverable (the stream cannot be resynchronised) and closes the
/// connection; a well-framed payload stamped with any other schema version
/// is answered with Status::Malformed, so a peer from another build fails
/// loudly on the header instead of misreading a body.
///
/// docs/serving.md is the authoritative protocol and lifecycle document.

#include <cstdint>
#include <string>
#include <vector>

#include "fsi/dense/matrix.hpp"

namespace fsi::serve {

using dense::index_t;

inline constexpr std::uint32_t kFrameMagic = 0x56525346;  // "FSRV" LE
/// The wire schema: decode_payload accepts exactly this version and every
/// encoder stamps it.  There is no negotiation; the number changes whenever
/// a body layout changes, so a mismatched peer is rejected on the header.
inline constexpr std::uint32_t kSchemaVersion = 5;
/// Upper bound on one frame's payload; a declared length beyond this is
/// treated as a malformed stream (protects the server from a hostile or
/// corrupt length prefix).  64 MiB fits fields for N*L ~ 8M sites-slices.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint32_t {
  InvertRequest = 1,
  InvertResponse = 2,
  StatsRequest = 3,   ///< admin: ask for a live stats snapshot
  StatsResponse = 4,  ///< admin: the snapshot
};

/// Response status.  RetryAfter and DeadlineMiss are *load-shedding*
/// outcomes: the server refuses work explicitly instead of queueing without
/// bound (see docs/serving.md, capacity semantics).
enum class Status : std::uint32_t {
  Ok = 0,
  RetryAfter = 1,    ///< admission queue full; back off retry_after_ms
  DeadlineMiss = 2,  ///< deadline expired before execution started
  Malformed = 3,     ///< request failed validation (message has detail)
  ShuttingDown = 4,  ///< server stopping; request was not executed
  Error = 5,         ///< internal failure (message has detail)
};
const char* status_name(Status s) noexcept;

/// One inversion request: model parameters + the HS field.
struct InvertRequest {
  std::uint64_t id = 0;      ///< client-assigned; echoed in the response
  std::uint32_t lx = 4;      ///< lattice extent x
  std::uint32_t ly = 1;      ///< lattice extent y (1 = periodic chain)
  std::uint32_t l = 8;       ///< imaginary-time slices L
  std::uint32_t c = 0;       ///< cluster size (0 = divisor of L near sqrt(L))
  std::int32_t q = -1;       ///< wrap offset in [0, c); -1 = derive from seed
  std::uint64_t seed = 0;    ///< q derivation stream (see resolve_q)
  double t = 1.0;            ///< hopping amplitude
  double u = 2.0;            ///< on-site interaction U
  double beta = 1.0;         ///< inverse temperature
  std::int64_t deadline_us = 0;  ///< relative budget; 0 = none, < 0 = expired
  bool time_dependent = true;    ///< also compute Rows/Columns + SPXX
  std::vector<double> field;     ///< HsField::serialize(), length l * lx * ly
  std::uint64_t trace_id = 0;       ///< correlation id stitched across the
                                    ///< socket; 0 = untraced request
  std::int64_t client_send_ns = 0;  ///< client clock at send (opaque to the
                                    ///< server; echoed into the access log)
  /// Requested fsi::Precision as its wire integer (0 = fp64, 1 = mixed;
  /// validate_request rejects anything else).
  std::uint32_t precision = 0;
};

/// One inversion response.
struct InvertResponse {
  std::uint64_t id = 0;
  Status status = Status::Error;
  std::uint32_t retry_after_ms = 0;   ///< RetryAfter: suggested backoff
  std::int32_t q_used = 0;            ///< the wrap offset actually used
  bool deadline_exceeded = false;     ///< Ok result that finished past deadline
  std::uint32_t batch_size = 0;       ///< occupancy of the carrying batch
  std::uint32_t l = 0;                ///< Measurements dimensions (Ok only)
  std::uint32_t dmax = 0;
  std::vector<double> measurements;   ///< qmc::Measurements::serialize()
  std::string message;                ///< human-readable detail on errors

  // Per-request timing breakdown.  The nanosecond fields split the
  // request's server-side journey so a client can print where time went
  // and place synthesized server spans on its own trace timeline:
  //   queue_wait_ns : admission -> first gathered out of the queue
  //   batch_wait_ns : gathered -> engine start (straggler window + setup)
  //   exec_ns       : engine run of the carrying batch
  std::uint64_t trace_id = 0;       ///< echo of the request's trace_id
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t batch_wait_ns = 0;
  std::uint64_t exec_ns = 0;
  double batch_occupancy = 0.0;     ///< carrying batch size / max_batch

  // Mixed-precision outcome (zero for fp64 requests).
  std::uint32_t precision_used = 0;  ///< the request's effective precision
                                     ///< mode (fsi::Precision wire integer)
  /// True when the carrying batch had at least one mixed task the health
  /// gate sent back to fp64 (the fallback is per task inside the engine,
  /// so this is a batch-level signal; the result is always gated either
  /// way).
  bool mixed_fallback = false;
};

/// Rolling-window percentile summary of one serve histogram (the last
/// ~obs::metrics::kWindowSeconds seconds, not process lifetime).
struct WindowStat {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One tracked BatchKey's live adaptive-policy state in a stats snapshot
/// (fsi_top's per-key table).  The key itself holds client-supplied
/// doubles, so the row carries a stable hash of it rather than the raw
/// fields.
struct PolicyKeyRow {
  std::uint64_t key_hash = 0;   ///< serve::hash(BatchKey) of the key
  std::int64_t window_us = 0;   ///< effective coalescing window
  std::uint64_t max_batch = 1;  ///< effective max batch
  bool bypass = false;          ///< coalescing disabled for this key
  double speedup = 0.0;         ///< measured batching-speedup EMA
};

/// Live introspection snapshot answered to a StatsRequest.  Lifetime
/// counters mirror ServerStats; the WindowStat fields are rolling windows
/// so consecutive polls show current load, not process history.
struct StatsResponse {
  std::uint64_t id = 0;
  std::uint64_t uptime_ns = 0;        ///< since Server::start()
  std::uint64_t connections = 0;
  std::uint64_t admitted = 0;
  std::uint64_t served_ok = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t deadline_miss = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t malformed = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t models_built = 0;
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_size = 0;
  std::uint64_t queue_depth = 0;      ///< gauge at snapshot time
  std::uint64_t queue_high_water = 0;
  std::uint64_t queue_capacity = 0;
  WindowStat latency_s;               ///< rolling ServeLatency (seconds)
  WindowStat queue_wait_s;            ///< rolling ServeQueueWait (seconds)
  WindowStat occupancy;               ///< rolling ServeBatchOccupancy

  // Build provenance of the answering daemon (obs::build_info()).
  std::string build_version;
  std::string build_git_sha;
  std::string build_compiler;
  std::string build_type;

  // Adaptive batching + scale-out.  The policy_* fields snapshot the most
  // recently observed BatchKey's tuning state (what fsi_top shows); all
  // zero when the adaptive policy is disabled.
  std::uint64_t rejected_quota = 0;   ///< requests shed: client over quota
  std::uint64_t replicas = 0;         ///< replicas this daemon runs
  bool adaptive_enabled = false;
  std::uint64_t policy_keys = 0;      ///< BatchKeys the policy is tracking
  std::int64_t policy_window_us = 0;  ///< active key: effective window
  std::uint64_t policy_max_batch = 0; ///< active key: effective max batch
  bool policy_bypass = false;         ///< active key: coalescing bypassed
  double policy_speedup = 0.0;        ///< active key: measured batching speedup
  std::uint64_t bypass_enters = 0;    ///< total bypass entries, all keys
  std::uint64_t bypass_exits = 0;     ///< total bypass exits, all keys

  // Mixed-precision totals (process-wide obs::metrics counters) and the
  // full per-key policy table, most recently dispatched key first.
  std::uint64_t mixed_runs = 0;       ///< FSI runs attempted in mixed mode
  std::uint64_t mixed_fallbacks = 0;  ///< mixed runs health-gated to fp64
  std::vector<PolicyKeyRow> policy_rows;

  double model_cache_hit_rate() const {
    const std::uint64_t lookups = models_built + model_cache_hits;
    return lookups > 0
               ? static_cast<double>(model_cache_hits) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

/// Encode a message into a frame *payload* (schema | type | id | body).
std::vector<std::uint8_t> encode_request(const InvertRequest& r);
std::vector<std::uint8_t> encode_response(const InvertResponse& r);
std::vector<std::uint8_t> encode_stats_request(std::uint64_t id);
std::vector<std::uint8_t> encode_stats_response(const StatsResponse& r);

/// Decoded frame payload; exactly one of request/response/stats is
/// meaningful, selected by type.
struct Decoded {
  MsgType type = MsgType::InvertRequest;
  InvertRequest request;
  InvertResponse response;
  StatsResponse stats;
};

/// Decode one frame payload.  Throws util::CheckError on a schema version
/// other than kSchemaVersion (the message names both), on truncation,
/// trailing garbage or an unknown message type.
Decoded decode_payload(const std::uint8_t* data, std::size_t size);

/// Append [magic | length | payload] to \p out.
void append_frame(std::vector<std::uint8_t>& out,
                  const std::vector<std::uint8_t>& payload);

/// Incremental frame splitter for a byte stream.  feed() buffers received
/// bytes; next() yields complete frame payloads in order.  Throws
/// util::CheckError on a bad magic or a length above max_frame_bytes —
/// both unrecoverable for the stream.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n);
  bool next(std::vector<std::uint8_t>& payload);
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Validate an InvertRequest's parameters and field payload.  Returns "" if
/// valid, else a human-readable reason (becomes the Malformed message).
std::string validate_request(const InvertRequest& r);

/// The cluster size a request resolves to (r.c, or the default divisor of L
/// nearest sqrt(L) when r.c == 0).  Requires a validated request.
index_t effective_cluster(const InvertRequest& r);

/// The wrap offset a request resolves to: r.q when >= 0, else drawn
/// uniformly from [0, c) by the (seed)-keyed stream — deterministic, so an
/// in-process reference run with the same seed selects the same blocks.
index_t resolve_q(const InvertRequest& r, index_t c);

/// Convenience for clients and tests: a random ±1 HS field configuration
/// of the request's dimensions, serialized (HsField(l, n, Rng(seed))).
std::vector<double> random_field(std::uint32_t lx, std::uint32_t ly,
                                 std::uint32_t l, std::uint64_t seed);

}  // namespace fsi::serve
