#pragma once
/// \file queue.hpp
/// \brief Admission control and request coalescing for the serve daemon.
///
/// The queue is the server's only buffer, and it is bounded: when it is
/// full, try_push fails and the caller answers RETRY-AFTER instead of
/// queueing without bound (explicit backpressure, the ISSUE's overload
/// contract).  The batcher drains it with next_batch(), which coalesces
/// *compatible* requests — same lattice, L, cluster size and physics
/// parameters, i.e. the same BatchKey — into one engine batch, waiting up
/// to a short window for stragglers so concurrent clients share a single
/// task-graph run (amortising the executor wake-up and giving the graph
/// enough parallelism to fill the pool).
///
/// Deadlines and cancellation are *checked*, not enforced, here: the queue
/// stores the absolute expiry and the liveness callback, and the server
/// filters expired or disconnected requests when it forms a batch.  This
/// keeps the queue free of response-path knowledge and makes the filter
/// order deterministic (arrival order).

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "fsi/serve/protocol.hpp"

namespace fsi::serve {

/// Requests coalesce into one engine batch iff their keys compare equal:
/// the model (lattice + physics + L) and the cluster size must match, since
/// one qmc::HubbardModel and one selinv configuration carry the whole batch.
struct BatchKey {
  std::uint32_t lx = 0, ly = 0, l = 0;
  index_t c = 0;
  double t = 0.0, u = 0.0, beta = 0.0;
  /// Requested precision mode (fsi::Precision wire integer).  Part of the
  /// key: a mixed and an fp64 request must never share an engine run, since
  /// the whole batch executes under one FsiBatchOptions::precision.
  std::uint32_t precision = 0;

  friend bool operator==(const BatchKey& a, const BatchKey& b) {
    return a.lx == b.lx && a.ly == b.ly && a.l == b.l && a.c == b.c &&
           a.t == b.t && a.u == b.u && a.beta == b.beta &&
           a.precision == b.precision;
  }
  friend bool operator!=(const BatchKey& a, const BatchKey& b) {
    return !(a == b);
  }
  /// Strict weak order so keys can index ordered containers.
  friend bool operator<(const BatchKey& a, const BatchKey& b);
};

/// Stable hash of a BatchKey for wire/dashboard rows: the key holds
/// client-supplied doubles (t, u, beta), so stats snapshots carry this
/// digest instead of the raw fields.
std::uint64_t hash(const BatchKey& key);

/// One admitted request waiting for a batch slot.
struct PendingRequest {
  InvertRequest request;
  index_t c = 0;  ///< resolved cluster size
  index_t q = 0;  ///< resolved wrapping offset
  /// Connection the request arrived on; the queue's per-client quota
  /// accounting is keyed by it (0 = unattributed, never quota-limited).
  std::uint64_t client_id = 0;
  std::int64_t arrival_ns = 0;   ///< obs::now_ns() at admission
  std::int64_t deadline_ns = 0;  ///< absolute expiry (0 = none)
  /// obs::now_ns() when next_batch gathered this request out of the queue —
  /// the boundary between its queue wait and its batch-formation wait in
  /// the per-request timing breakdown.  Stamped by the queue.
  std::int64_t popped_ns = 0;
  /// Deliver the response; must be safe to call from the batcher thread and
  /// must tolerate a concurrently closed connection.
  std::function<void(InvertResponse&&)> respond;
  /// False once the client's connection is gone — the batcher then drops
  /// the request instead of inverting for nobody.
  std::function<bool()> alive;

  BatchKey key() const {
    return BatchKey{request.lx, request.ly, request.l,    c,
                    request.t,  request.u,  request.beta, request.precision};
  }
  bool expired(std::int64_t now_ns) const {
    return deadline_ns != 0 && now_ns >= deadline_ns;
  }
};

/// How a batch of one key should be formed: how long to hold it open for
/// stragglers and how many requests it may coalesce.  Produced per key by
/// the adaptive policy (or from the static knobs when the policy is off).
struct BatchPlan {
  std::chrono::microseconds window{0};
  std::size_t max_batch = 1;
};

/// Why admit() refused a request (Ok = admitted).
enum class Admit {
  Ok = 0,
  Full,       ///< queue at max_depth — shed with RetryAfter
  OverQuota,  ///< this client already holds its per-client slot quota
};

/// Bounded MPMC queue with key-coalescing batch pop.  All operations are
/// thread-safe; next_batch blocks.
class AdmissionQueue {
 public:
  /// \p max_per_client caps how many queued slots one client (connection)
  /// may hold at once, so a single aggressive pipeliner cannot occupy the
  /// whole queue and starve everyone else into RetryAfter; 0 = no quota.
  explicit AdmissionQueue(std::size_t max_depth,
                          std::size_t max_per_client = 0);

  /// Admit a request.  Returns a rejection reason — without blocking —
  /// when the queue is at max_depth, the client is over its quota, or the
  /// queue is shut down; the caller sheds the request explicitly.
  Admit admit(PendingRequest&& r);

  /// Legacy convenience: admit() == Admit::Ok.
  bool try_push(PendingRequest&& r);

  /// Block until a request is available (or shutdown), then gather the
  /// oldest request plus every queued request with the same BatchKey, in
  /// arrival order, up to the plan's max_batch.  If the batch is not full,
  /// waits up to the plan's window for compatible stragglers to arrive.
  /// Requests with other keys stay queued.  The planner is called once,
  /// with the key of the oldest request, after that request is available —
  /// which is what lets an adaptive policy choose a per-key window.
  /// Returns an empty vector only at shutdown with an empty queue.
  std::vector<PendingRequest> next_batch(
      const std::function<BatchPlan(const BatchKey&)>& plan);

  /// Fixed-plan overload (the pre-adaptive behaviour).
  std::vector<PendingRequest> next_batch(std::chrono::microseconds window,
                                         std::size_t max_batch);

  /// Stop accepting and wake next_batch.  Queued requests remain for
  /// drain().
  void shutdown();

  /// Remove and return everything still queued (used at shutdown to answer
  /// ShuttingDown).
  std::vector<PendingRequest> drain();

  std::size_t depth() const;
  std::size_t max_depth() const { return max_depth_; }
  std::size_t max_per_client() const { return max_per_client_; }
  /// High-water mark of depth() since construction.
  std::size_t max_depth_seen() const;
  /// Queued requests currently held by \p client_id.
  std::size_t client_depth(std::uint64_t client_id) const;

 private:
  /// Move every entry matching \p key (arrival order) into \p out, up to
  /// max_batch total.  Caller holds the lock.
  void take_matching(const BatchKey& key, std::size_t max_batch,
                     std::vector<PendingRequest>& out);
  void note_depth_locked();
  void release_client_locked(std::uint64_t client_id);

  const std::size_t max_depth_;
  const std::size_t max_per_client_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  /// Queued-slot count per client id; entries are erased at zero so the
  /// map stays bounded by the queue depth, not by client churn.
  std::map<std::uint64_t, std::size_t> clients_;
  std::size_t high_water_ = 0;
  bool shutdown_ = false;
};

}  // namespace fsi::serve
