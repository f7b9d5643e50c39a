#pragma once
/// \file policy.hpp
/// \brief Adaptive batching policy for the serve daemon.
///
/// The fixed straggler window is a bet: hold a batch open for
/// `batch_window_us` and hope compatible requests arrive to share the
/// engine run.  Under a pipelined burst the bet pays (batches fill
/// instantly and the window is never charged); under sparse or closed-loop
/// traffic every request pays the full window for nothing and coalescing
/// *halves* throughput — the `batching_speedup 0.47` regression that
/// motivated this module (ROADMAP item 1).
///
/// AdaptivePolicy closes the loop: it observes every dispatched batch
/// (size, straggler wait actually paid, engine time, queue depth left
/// behind) and tunes the per-BatchKey coalescing window and max batch from
/// those measurements — the same discipline PSelInv applies to distributed
/// work mapping, applied to the batching layer.  The state machine per key:
///
///   Coalesce ── bypass_after consecutive losing windows ──► Bypass
///      ▲                                                      │
///      └── resume_after consecutive backlogged dispatches ◄───┘
///
/// - A *losing* window is a batch that dispatched alone (size 1) after
///   paying a straggler wait: the measured per-request cost exceeded the
///   solo service time, i.e. the measured batching speedup of that batch
///   was < 1.  Each loss halves the window (multiplicative decrease);
///   `bypass_after` consecutive losses engage Bypass: window 0, max batch
///   1 — coalescing off, every request dispatches immediately.
/// - A *winning* batch (2+ requests amortised one engine run, at a
///   measured per-request cost below the solo service time) doubles the
///   window back toward its configured ceiling.
/// - In Bypass the only signal left is the queue: a dispatch that leaves
///   same-key work queued means arrivals outpace service and coalescing
///   would amortise again.  `resume_after` consecutive backlogged
///   dispatches exit Bypass (window restarts at the floor — slow start —
///   and max batch at the ceiling to absorb the backlog).
///
/// The two streak thresholds are the hysteresis: one stray loss (or one
/// stray burst) moves a counter, not the mode, so an adversarial
/// alternating trace cannot make the policy flap (test_serve_policy.cpp
/// asserts the transition bound).
///
/// Keys are client-supplied (they contain t, u, beta), so the per-key
/// table is LRU-bounded like the server's model cache.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <utility>
#include <vector>

#include "fsi/serve/queue.hpp"

namespace fsi::serve {

/// Tuning constants of the adaptive policy.  Zero ceilings are resolved by
/// the server from its static knobs (`batch_window_us`, `max_batch`), so a
/// default-constructed config means "adapt within the configured limits".
struct AdaptiveConfig {
  bool enabled = true;
  std::int64_t window_ceiling_us = 0;  ///< 0 = ServerOptions::batch_window_us
  std::int64_t window_floor_us = 50;   ///< smallest non-bypass window
  std::size_t max_batch_ceiling = 0;   ///< 0 = ServerOptions::max_batch
  double ema_alpha = 0.25;             ///< smoothing of the occupancy/cost EMAs
  int bypass_after = 4;   ///< consecutive losing windows to enter Bypass
  int resume_after = 3;   ///< consecutive backlogged dispatches to exit
  std::size_t max_keys = 64;  ///< LRU bound of the per-key table
};

/// One dispatched batch, as the policy sees it (fed by the batcher after
/// the engine run).
struct BatchObservation {
  std::size_t batch_size = 0;        ///< live requests the batch carried
  std::size_t queue_depth_after = 0; ///< queue depth right after the pop
  std::int64_t window_wait_ns = 0;   ///< straggler wait actually paid
  std::int64_t exec_ns = 0;          ///< engine time of the batch
};

/// Live tuning state of one BatchKey (also the wire/dashboard snapshot).
struct KeyPolicy {
  std::int64_t window_us = 0;   ///< effective coalescing window
  std::size_t max_batch = 1;    ///< effective max batch
  bool bypass = false;          ///< true = coalescing disabled for this key
  double ema_occupancy = 0.0;   ///< smoothed dispatched batch size
  double ema_solo_ns = 0.0;     ///< smoothed engine time of size-1 batches
  double speedup = 0.0;         ///< measured batching speedup estimate
                                ///< (solo cost / per-request batched cost;
                                ///< 0 until both sides have samples)
  std::uint64_t batches = 0;    ///< observations folded into this state
  std::uint64_t bypass_enters = 0;
  std::uint64_t bypass_exits = 0;
  int lose_streak = 0;
  int win_streak = 0;
};

/// Per-key adaptive batching controller.  plan() is consulted by the
/// batcher before every pop; observe() feeds the dispatched batch back.
/// Thread-safe (one mutex — this runs at batch rate, not kernel rate).
class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(AdaptiveConfig config);

  /// The window / max-batch the next batch of \p key should use.
  /// Disabled policy (or an unseen key) returns the configured ceilings.
  BatchPlan plan(const BatchKey& key);

  /// Fold one dispatched batch into \p key's state and retune.  Updates the
  /// serve_policy_* gauges and bypass transition counters in obs::metrics.
  void observe(const BatchKey& key, const BatchObservation& obs);

  /// Snapshot of one key's state (default-constructed plan for an unseen
  /// key) and of the most recently observed key (what dashboards show).
  KeyPolicy state(const BatchKey& key) const;
  KeyPolicy active_state() const;

  /// Every tracked key's state, most recently touched first (the stats
  /// snapshot's per-key table; bounded by AdaptiveConfig::max_keys).
  std::vector<std::pair<BatchKey, KeyPolicy>> snapshot() const;

  std::size_t keys() const;
  std::uint64_t bypass_enters() const;
  std::uint64_t bypass_exits() const;
  const AdaptiveConfig& config() const { return config_; }

 private:
  struct Entry {
    BatchKey key;
    KeyPolicy state;
  };
  /// Find or create \p key's entry, moving it to the LRU front.  Caller
  /// holds the lock.
  Entry& touch(const BatchKey& key);
  void publish_gauges(const KeyPolicy& s) const;

  AdaptiveConfig config_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  ///< LRU front = most recently touched
  KeyPolicy active_;          ///< copy of the last observed key's state
  std::uint64_t bypass_enters_ = 0;
  std::uint64_t bypass_exits_ = 0;
};

}  // namespace fsi::serve
