#include "fsi/obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "fsi/obs/trace.hpp"  // now_ns(): the windowed-histogram clock

namespace fsi::obs::metrics {
namespace {

constexpr int kNumCounters = static_cast<int>(Counter::kCount);
constexpr int kNumHists = static_cast<int>(Hist::kCount);
constexpr int kNumAccums = static_cast<int>(Accum::kCount);

/// One thread's view of one histogram.  min/max/sum are owner-written
/// plain-load-then-store relaxed atomics, like the counter cells.
struct HistSlot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};
  std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
};

// Per-thread slot: one cell per counter, histogram and accumulator.  Slots
// are heap-allocated and intentionally never freed — they are tiny and must
// outlive the thread so that total() still sees the work of joined OpenMP
// workers.  Only the owning thread writes a slot; readers merge on read
// through the atomics.
struct Slot {
  std::atomic<std::uint64_t> cells[kNumCounters] = {};
  HistSlot hists[kNumHists];
  std::atomic<double> accums[kNumAccums] = {};
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<Slot*>& registry() {
  static std::vector<Slot*> r;
  return r;
}

// Lock-free mirror of the registry for totals_signal_safe(): a fixed array
// of atomic slot pointers the crash handler can walk without taking the
// mutex.  Threads beyond kMaxSignalSlots still count normally through the
// mutexed registry; they are merely invisible to the signal-safe view.
constexpr int kMaxSignalSlots = 256;
std::atomic<Slot*> g_slot_mirror[kMaxSignalSlots] = {};
std::atomic<int> g_slot_mirror_count{0};

Slot& local_slot() {
  thread_local Slot* slot = [] {
    auto* s = new Slot();
    {
      std::lock_guard<std::mutex> lock(registry_mutex());
      registry().push_back(s);
    }
    const int i = g_slot_mirror_count.fetch_add(1, std::memory_order_acq_rel);
    if (i < kMaxSignalSlots)
      g_slot_mirror[i].store(s, std::memory_order_release);
    return s;
  }();
  return *slot;
}

}  // namespace

const char* name(Counter c) noexcept {
  switch (c) {
    case Counter::Flops: return "flops";
    case Counter::BytesMoved: return "bytes_moved";
    case Counter::KernelCalls: return "kernel_calls";
    case Counter::PoolHits: return "pool_hits";
    case Counter::PoolMisses: return "pool_misses";
    case Counter::ExecNodes: return "exec_nodes";
    case Counter::ExecSteals: return "exec_steals";
    case Counter::ServeRequests: return "serve_requests";
    case Counter::ServeBatches: return "serve_batches";
    case Counter::ServeRejected: return "serve_rejected";
    case Counter::ServeDeadlineMiss: return "serve_deadline_miss";
    case Counter::ServeCancelled: return "serve_cancelled";
    case Counter::ServeErrors: return "serve_errors";
    case Counter::ServeQuotaRejected: return "serve_quota_rejected";
    case Counter::ServeBypassEnter: return "serve_bypass_enter";
    case Counter::ServeBypassExit: return "serve_bypass_exit";
    case Counter::MixedRuns: return "mixed_runs";
    case Counter::MixedFallbacks: return "mixed_fallbacks";
    case Counter::StabQrp: return "stab_qrp";
    case Counter::StabRecombine: return "stab_recombine";
    case Counter::GreensRecomputes: return "greens_recomputes";
    case Counter::kCount: break;
  }
  return "?";
}

void add(Counter c, std::uint64_t n) noexcept {
  // Owner-only write: load + store instead of fetch_add keeps the hot path
  // free of locked read-modify-write instructions (the PR-1 flops audit).
  std::atomic<std::uint64_t>& cell = local_slot().cells[static_cast<int>(c)];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

std::uint64_t total(Counter c) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::uint64_t sum = 0;
  for (const Slot* s : registry())
    sum += s->cells[static_cast<int>(c)].load(std::memory_order_relaxed);
  return sum;
}

void reset(Counter c) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Slot* s : registry())
    s->cells[static_cast<int>(c)].store(0, std::memory_order_relaxed);
}

namespace {

void reset_hist_slot(HistSlot& h) {
  h.count.store(0, std::memory_order_relaxed);
  h.sum.store(0.0, std::memory_order_relaxed);
  h.min.store(0.0, std::memory_order_relaxed);
  h.max.store(0.0, std::memory_order_relaxed);
  for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
}

std::atomic<double>& gauge_cell(Gauge g) {
  static std::atomic<double> cells[static_cast<int>(Gauge::kCount)] = {};
  return cells[static_cast<int>(g)];
}

std::atomic<double>& hist_last_cell(Hist h) {
  static std::atomic<double> cells[kNumHists] = {};
  return cells[static_cast<int>(h)];
}

}  // namespace

void reset_all() noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Slot* s : registry()) {
    for (auto& cell : s->cells) cell.store(0, std::memory_order_relaxed);
    for (auto& h : s->hists) reset_hist_slot(h);
    for (auto& a : s->accums) a.store(0.0, std::memory_order_relaxed);
  }
  for (int g = 0; g < static_cast<int>(Gauge::kCount); ++g)
    gauge_cell(static_cast<Gauge>(g)).store(0.0, std::memory_order_relaxed);
  for (int h = 0; h < kNumHists; ++h)
    hist_last_cell(static_cast<Hist>(h)).store(0.0, std::memory_order_relaxed);
}

int totals_signal_safe(std::uint64_t* out, int n) noexcept {
  const int nc = n < kNumCounters ? n : kNumCounters;
  for (int c = 0; c < nc; ++c) out[c] = 0;
  int slots = g_slot_mirror_count.load(std::memory_order_acquire);
  if (slots > kMaxSignalSlots) slots = kMaxSignalSlots;
  for (int i = 0; i < slots; ++i) {
    const Slot* s = g_slot_mirror[i].load(std::memory_order_acquire);
    if (s == nullptr) continue;  // registration raced; skip, never block
    for (int c = 0; c < nc; ++c)
      out[c] += s->cells[c].load(std::memory_order_relaxed);
  }
  return nc;
}

std::vector<std::pair<const char*, std::uint64_t>> snapshot() {
  std::vector<std::pair<const char*, std::uint64_t>> out;
  out.reserve(kNumCounters);
  for (int c = 0; c < kNumCounters; ++c)
    out.emplace_back(name(static_cast<Counter>(c)),
                     total(static_cast<Counter>(c)));
  return out;
}

// ---------------------------------------------------------------------------
// Histograms.

const char* name(Hist h) noexcept {
  switch (h) {
    case Hist::WrapDrift: return "wrap_drift";
    case Hist::Cond1Reduced: return "cond1_reduced";
    case Hist::SelResidual: return "sel_residual";
    case Hist::ReadyDepth: return "ready_depth";
    case Hist::NodeSeconds: return "node_seconds";
    case Hist::ServeLatency: return "serve_latency_s";
    case Hist::ServeQueueWait: return "serve_queue_wait_s";
    case Hist::ServeBatchOccupancy: return "serve_batch_occupancy";
    case Hist::kCount: break;
  }
  return "?";
}

int hist_bucket(double value) noexcept {
  if (!(value > 0.0)) return 0;  // non-positive and NaN: lowest bucket
  if (std::isinf(value)) return kHistBuckets - 1;
  const int decade = static_cast<int>(std::floor(std::log10(value)));
  return std::clamp(decade, kHistMinDecade, kHistMaxDecade) - kHistMinDecade;
}

void record(Hist h, double value) noexcept {
  HistSlot& slot = local_slot().hists[static_cast<int>(h)];
  const std::uint64_t n = slot.count.load(std::memory_order_relaxed);
  slot.count.store(n + 1, std::memory_order_relaxed);
  slot.sum.store(slot.sum.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
  if (n == 0 || value < slot.min.load(std::memory_order_relaxed))
    slot.min.store(value, std::memory_order_relaxed);
  if (n == 0 || value > slot.max.load(std::memory_order_relaxed))
    slot.max.store(value, std::memory_order_relaxed);
  auto& bucket = slot.buckets[hist_bucket(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  // "last" is a single global cell: a racy overwrite just means another
  // thread's equally-recent sample wins, which is fine for a gauge-style
  // reading.
  hist_last_cell(h).store(value, std::memory_order_relaxed);
}

HistSnapshot hist(Hist h) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  HistSnapshot out;
  for (const Slot* s : registry()) {
    const HistSlot& hs = s->hists[static_cast<int>(h)];
    const std::uint64_t n = hs.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    const double mn = hs.min.load(std::memory_order_relaxed);
    const double mx = hs.max.load(std::memory_order_relaxed);
    if (out.count == 0 || mn < out.min) out.min = mn;
    if (out.count == 0 || mx > out.max) out.max = mx;
    out.count += n;
    out.sum += hs.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kHistBuckets; ++b)
      out.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
  }
  out.last = hist_last_cell(h).load(std::memory_order_relaxed);
  return out;
}

void reset(Hist h) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Slot* s : registry()) reset_hist_slot(s->hists[static_cast<int>(h)]);
  hist_last_cell(h).store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Windowed histograms.

namespace {

/// Fine log-spaced value bucket: kWindowSubBuckets per decade over the same
/// decade span as the lifetime histograms.  Non-positive and NaN samples go
/// to bucket 0, +inf to the last — nothing is silently dropped.
int window_value_bucket(double value) noexcept {
  if (!(value > 0.0)) return 0;
  if (std::isinf(value)) return kWindowValueBuckets - 1;
  const double scaled = std::log10(value) * kWindowSubBuckets;
  const int idx = static_cast<int>(std::floor(scaled)) -
                  kHistMinDecade * kWindowSubBuckets;
  return std::clamp(idx, 0, kWindowValueBuckets - 1);
}

/// Lower edge of a fine bucket (inverse of window_value_bucket).
double window_bucket_lower(int idx) noexcept {
  return std::pow(10.0, static_cast<double>(idx) / kWindowSubBuckets +
                            kHistMinDecade);
}

/// One wall second of samples.  epoch_s stamps which second the bucket
/// holds; a bucket whose second fell out of the window is stale and is
/// reset lazily on the next write (or skipped on read).
struct WindowBucket {
  std::int64_t epoch_s = -1;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t vals[kWindowValueBuckets] = {};

  void reset(std::int64_t s) {
    epoch_s = s;
    count = 0;
    sum = min = max = 0.0;
    for (auto& v : vals) v = 0;
  }
};

/// Ring of one-second buckets guarded by one mutex per histogram.  Windowed
/// recording happens at request rate (the serve plane), so a mutex — not
/// the thread-local-slot machinery of the lifetime histograms — is the
/// right cost/complexity trade.
struct WindowedHist {
  std::mutex mu;
  WindowBucket ring[kWindowSeconds];
};

WindowedHist& windowed(Hist h) {
  static WindowedHist cells[kNumHists];
  return cells[static_cast<int>(h)];
}

/// Percentile estimate from merged fine buckets: the geometric midpoint of
/// the bucket holding the q-th sample, clamped to the observed range.
double window_percentile(const std::uint64_t (&vals)[kWindowValueBuckets],
                         std::uint64_t count, double q, double mn, double mx) {
  if (count == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1) + 0.5);
  std::uint64_t seen = 0;
  for (int b = 0; b < kWindowValueBuckets; ++b) {
    seen += vals[b];
    if (seen > rank) {
      const double lo = window_bucket_lower(b);
      const double hi = window_bucket_lower(b + 1);
      return std::clamp(std::sqrt(lo * hi), mn, mx);
    }
  }
  return mx;
}

}  // namespace

void record_windowed(Hist h, double value, std::int64_t now_ns) noexcept {
  record(h, value);  // lifetime histogram stays consistent with the window
  const std::int64_t s = now_ns / 1'000'000'000;
  WindowedHist& w = windowed(h);
  std::lock_guard<std::mutex> lock(w.mu);
  WindowBucket& b = w.ring[static_cast<std::size_t>(s) %
                          static_cast<std::size_t>(kWindowSeconds)];
  if (b.epoch_s != s) b.reset(s);
  if (b.count == 0 || value < b.min) b.min = value;
  if (b.count == 0 || value > b.max) b.max = value;
  ++b.count;
  b.sum += value;
  ++b.vals[window_value_bucket(value)];
}

WindowSnapshot window(Hist h, std::int64_t now_ns) noexcept {
  const std::int64_t now_s = now_ns / 1'000'000'000;
  WindowSnapshot out;
  std::uint64_t vals[kWindowValueBuckets] = {};
  WindowedHist& w = windowed(h);
  {
    std::lock_guard<std::mutex> lock(w.mu);
    for (const WindowBucket& b : w.ring) {
      // Keep buckets stamped within (now_s - kWindowSeconds, now_s].
      if (b.epoch_s < 0 || b.epoch_s + kWindowSeconds <= now_s ||
          b.epoch_s > now_s || b.count == 0)
        continue;
      if (out.count == 0 || b.min < out.min) out.min = b.min;
      if (out.count == 0 || b.max > out.max) out.max = b.max;
      out.count += b.count;
      out.sum += b.sum;
      for (int v = 0; v < kWindowValueBuckets; ++v) vals[v] += b.vals[v];
    }
  }
  out.p50 = window_percentile(vals, out.count, 0.50, out.min, out.max);
  out.p95 = window_percentile(vals, out.count, 0.95, out.min, out.max);
  out.p99 = window_percentile(vals, out.count, 0.99, out.min, out.max);
  return out;
}

void record_windowed(Hist h, double value) noexcept {
  record_windowed(h, value, now_ns());
}

WindowSnapshot window(Hist h) noexcept { return window(h, now_ns()); }

void reset_window(Hist h) noexcept {
  WindowedHist& w = windowed(h);
  std::lock_guard<std::mutex> lock(w.mu);
  for (WindowBucket& b : w.ring) b.reset(-1);
}

// ---------------------------------------------------------------------------
// Gauges.

const char* name(Gauge g) noexcept {
  switch (g) {
    case Gauge::WrapInterval: return "wrap_interval";
    case Gauge::FlushToZero: return "flush_to_zero";
    case Gauge::HealthSampleEvery: return "health_sample_every";
    case Gauge::ExecPoolWorkers: return "exec_pool_workers";
    case Gauge::ServeQueueDepth: return "serve_queue_depth";
    case Gauge::ServePolicyWindowUs: return "serve_policy_window_us";
    case Gauge::ServePolicyMaxBatch: return "serve_policy_max_batch";
    case Gauge::ServePolicyBypass: return "serve_policy_bypass";
    case Gauge::ServeReplicas: return "serve_replicas";
    case Gauge::StabScaleSpread: return "stab_scale_spread_log10";
    case Gauge::GreensLastDrift: return "greens_last_drift";
    case Gauge::GreensMaxDrift: return "greens_max_drift";
    case Gauge::kCount: break;
  }
  return "?";
}

void set(Gauge g, double value) noexcept {
  gauge_cell(g).store(value, std::memory_order_relaxed);
}

double get(Gauge g) noexcept {
  return gauge_cell(g).load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Wall-time accumulators.

const char* name(Accum a) noexcept {
  switch (a) {
    case Accum::GreensRecompute: return "greens_recompute_s";
    case Accum::HealthCheck: return "health_check_s";
    case Accum::kCount: break;
  }
  return "?";
}

void add_seconds(Accum a, double s) noexcept {
  std::atomic<double>& cell = local_slot().accums[static_cast<int>(a)];
  cell.store(cell.load(std::memory_order_relaxed) + s,
             std::memory_order_relaxed);
}

double seconds(Accum a) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  double sum = 0.0;
  for (const Slot* s : registry())
    sum += s->accums[static_cast<int>(a)].load(std::memory_order_relaxed);
  return sum;
}

void reset(Accum a) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Slot* s : registry())
    s->accums[static_cast<int>(a)].store(0.0, std::memory_order_relaxed);
}

}  // namespace fsi::obs::metrics
