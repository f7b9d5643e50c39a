#pragma once
/// \file metrics.hpp
/// \brief Always-on, OpenMP-safe performance counters.
///
/// One registry of per-thread counter slots covering the quantities the
/// paper's performance figures are built from: floating-point operations,
/// bytes moved through the dense kernels and kernel invocations, plus the
/// executor, serve, mixed-precision and stabilisation event counts.
/// fsi::util::flops is a thin façade over the Flops counter here,
/// so flop accounting and the tracing subsystem share a single registry.
///
/// Concurrency model (the result of the PR-1 audit of util/flops under the
/// OpenMP loops in cluster()/wrap()): accumulation is strictly thread-local —
/// each thread owns a heap-allocated slot that only it writes — and totals
/// are merged on read.  The owner updates its slot with a plain
/// load-then-store of a relaxed atomic (no read-modify-write, so no lock
/// prefix on the hot path); concurrent readers see a torn-free value via the
/// atomic load.  reset() zeroes other threads' slots and therefore must not
/// race with counting (same contract as the previous implementation).
///
/// Counters are always on: an add() is a thread-local increment, cheap
/// enough for release builds, and the benches rely on flop totals even when
/// tracing is disabled.

#include <cstdint>
#include <utility>
#include <vector>

namespace fsi::obs::metrics {

/// The tracked quantities.  kCount is the slot-array size, not a counter.
enum class Counter : int {
  Flops = 0,       ///< floating point operations (textbook counts)
  BytesMoved,      ///< bytes read+written by dense kernels (model, not HW)
  KernelCalls,     ///< dense kernel invocations (gemm/trsm/ormqr/...)
  // PoolHits/PoolMisses are never incremented: the workspace pool is
  // deleted.  They remain only until a benchmark PR drops perfbench's pool
  // rows, which read them.
  PoolHits,        ///< always 0 (see above)
  PoolMisses,      ///< always 0 (see above)
  ExecNodes,       ///< task-graph nodes executed by the executor
  ExecSteals,      ///< successful steal-half operations in graph runs
  ServeRequests,   ///< inversion requests admitted by the serve front end
  ServeBatches,    ///< coalesced batches dispatched to the engine
  ServeRejected,   ///< requests shed with RETRY-AFTER (queue full)
  ServeDeadlineMiss,  ///< requests rejected because their deadline expired
  ServeCancelled,  ///< requests dropped because the client disconnected
  ServeErrors,     ///< requests answered Malformed or Error
  ServeQuotaRejected,  ///< requests shed because the client was over quota
  ServeBypassEnter,    ///< adaptive policy transitions into bypass
  ServeBypassExit,     ///< adaptive policy transitions out of bypass
  MixedRuns,           ///< FSI runs attempted in mixed (fp32 CLS+WRP) mode
  MixedFallbacks,      ///< mixed runs the health gate sent back to fp64
  StabQrp,             ///< pivoted-QR re-orthogonalisations in the UDT chain
  StabRecombine,       ///< UDT recombination inversions (1 + UDT)^-1
  GreensRecomputes,    ///< EqualTimeGreens from-scratch stabilised recomputes
  kCount
};

/// Human-readable name of a counter (e.g. "flops", "bytes_moved").
const char* name(Counter c) noexcept;

/// Add \p n to the calling thread's slot for counter \p c.
void add(Counter c, std::uint64_t n) noexcept;

/// Merge-on-read sum of all threads' slots for \p c since the last reset.
/// Threads that have exited still contribute their counts.
std::uint64_t total(Counter c) noexcept;

/// Zero one counter across every thread's slot, or everything in the
/// registry (counters, histograms, gauges, accumulators).
/// Must not race with concurrent add() (updates may be lost, never torn).
void reset(Counter c) noexcept;
void reset_all() noexcept;

/// Snapshot of every counter's total, in enum order.
std::vector<std::pair<const char*, std::uint64_t>> snapshot();

/// Async-signal-safe counter totals: writes total(Counter(i)) into out[i]
/// for i < min(n, kCount) and returns how many were written.  Sums a
/// lock-free mirror of the slot registry (no mutex, no allocation), so the
/// crash handler can embed a counter snapshot in its dump.  Slots still
/// registering concurrently may be missed; all completed ones are seen.
int totals_signal_safe(std::uint64_t* out, int n) noexcept;

/// RAII helper measuring the global growth of one counter during its
/// lifetime.  Not reentrant with reset().
class Scope {
 public:
  explicit Scope(Counter c) : counter_(c), start_(total(c)) {}
  std::uint64_t elapsed() const noexcept { return total(counter_) - start_; }

 private:
  Counter counter_;
  std::uint64_t start_;
};

// ---------------------------------------------------------------------------
// Histograms — log-bucketed value distributions for the numerical-health
// observables (same thread-local-slot / merge-on-read model as the
// counters, so record() is safe from OpenMP regions).

/// The tracked distributions.  kCount is the slot-array size.
enum class Hist : int {
  WrapDrift = 0,  ///< ||G_wrap - G_recompute||_max at each stabilisation
  Cond1Reduced,   ///< 1-norm condition estimate of the reduced BSOFI matrix
  SelResidual,    ///< sampled ||(M G_sel - I) block||_max spot checks
  ReadyDepth,     ///< own-deque depth sampled at each graph-executor pop
  NodeSeconds,    ///< per-node wall time in the graph executor
  ServeLatency,   ///< serve request latency (arrival -> response), seconds
  ServeQueueWait, ///< serve admission-queue wait per request, seconds
  ServeBatchOccupancy,  ///< dispatched batch size / max_batch, in (0, 1]
  kCount
};

/// Decade buckets: bucket i counts samples v with
/// floor(log10(v)) == i + kHistMinDecade; values at or below 10^kHistMinDecade
/// land in bucket 0, values at or above 10^kHistMaxDecade in the last bucket.
inline constexpr int kHistMinDecade = -18;
inline constexpr int kHistMaxDecade = 8;
inline constexpr int kHistBuckets = kHistMaxDecade - kHistMinDecade + 1;

/// Human-readable name of a histogram (e.g. "wrap_drift").
const char* name(Hist h) noexcept;

/// Bucket index for a value (clamped; non-positive and non-finite values go
/// to the extreme buckets so nothing is silently dropped).
int hist_bucket(double value) noexcept;

/// Record one sample into the calling thread's slot.
void record(Hist h, double value) noexcept;

/// Merged view of one histogram across all threads.
struct HistSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;   ///< 0 when count == 0
  double max = 0.0;
  double last = 0.0;  ///< most recently recorded sample (any thread)
  std::uint64_t buckets[kHistBuckets] = {};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

HistSnapshot hist(Hist h) noexcept;

/// Zero one histogram across every thread's slot (same contract as
/// reset(Counter): must not race with concurrent record()).
void reset(Hist h) noexcept;

// ---------------------------------------------------------------------------
// Windowed histograms — rolling last-~10-seconds percentiles for the serve
// telemetry plane.  The lifetime histograms above accumulate forever, which
// is what benches want but useless as a *control input* (ROADMAP item 1:
// adaptive batching needs the occupancy and queue wait of the last few
// seconds, not of the whole process).  A windowed histogram is a ring of
// kWindowSeconds one-second buckets, each holding fine log-spaced value
// counts; buckets are invalidated lazily when their wall second falls out
// of the window, so there is no sweeper thread.  Recording takes a mutex —
// windowed hists are for request-rate paths (serve), not kernel-rate ones.

/// Width of the rolling window, in one-second ring buckets.
inline constexpr int kWindowSeconds = 10;
/// Log-spaced value resolution: sub-buckets per decade.  8 per decade keeps
/// any percentile estimate within ~33% of the true sample value.
inline constexpr int kWindowSubBuckets = 8;
inline constexpr int kWindowValueBuckets = kHistBuckets * kWindowSubBuckets;

/// Merged view of one histogram's rolling window.  Percentiles are
/// estimated from the log-spaced buckets (geometric midpoint, clamped to
/// the observed [min, max]); an empty window is all zeros.
struct WindowSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Record one sample into \p h's rolling window *and* its lifetime
/// histogram (callers record once; both views stay consistent).
/// \p now_ns is the sample's timestamp on the obs::now_ns() clock; the
/// overload without it stamps the current time.  Thread-safe.
void record_windowed(Hist h, double value, std::int64_t now_ns) noexcept;
void record_windowed(Hist h, double value) noexcept;

/// Snapshot of the samples recorded into \p h's window during the last
/// kWindowSeconds seconds before \p now_ns (current time if omitted).
WindowSnapshot window(Hist h, std::int64_t now_ns) noexcept;
WindowSnapshot window(Hist h) noexcept;

/// Drop every windowed sample of \p h (lifetime histogram untouched).
void reset_window(Hist h) noexcept;

// ---------------------------------------------------------------------------
// Gauges — last-value-wins scalars (single global cell per gauge).

enum class Gauge : int {
  WrapInterval = 0,   ///< DQMC stabilisation interval currently in effect
  FlushToZero,        ///< 1 when FTZ/DAZ was enabled on the main thread
  HealthSampleEvery,  ///< residual spot-check sampling period (0 = off)
  ExecPoolWorkers,    ///< threads currently in the persistent executor pool
  ServeQueueDepth,    ///< serve admission-queue depth (sampled on change)
  ServePolicyWindowUs,  ///< adaptive policy: effective window of the active key
  ServePolicyMaxBatch,  ///< adaptive policy: effective max batch of the active key
  ServePolicyBypass,    ///< adaptive policy: 1 when the active key is in bypass
  ServeReplicas,        ///< daemon replicas sharing this process's endpoint
  StabScaleSpread,      ///< log10(dmax/dmin) of the last UDT chain recombined
  GreensLastDrift,      ///< most recent EqualTimeGreens wrap-drift sample
  GreensMaxDrift,       ///< worst wrap-drift sample since the last reset
  kCount
};

const char* name(Gauge g) noexcept;
void set(Gauge g, double value) noexcept;
double get(Gauge g) noexcept;

// ---------------------------------------------------------------------------
// Wall-time accumulators — named seconds buckets in the shared registry, so
// stage bookkeeping (e.g. Green's-recompute time) lives here instead of in
// hand-rolled per-object accumulators.  Thread-local slots, merged on read.

enum class Accum : int {
  GreensRecompute = 0,  ///< stabilised Green's-function recomputes
  HealthCheck,          ///< health-layer estimator self-cost
  kCount
};

const char* name(Accum a) noexcept;
void add_seconds(Accum a, double s) noexcept;
double seconds(Accum a) noexcept;
void reset(Accum a) noexcept;

}  // namespace fsi::obs::metrics
