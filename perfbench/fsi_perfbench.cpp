/// \file fsi_perfbench.cpp
/// \brief Steady end-to-end benchmark of the FSI library with a traced
/// per-layer ledger.
///
///   fsi_perfbench --workload <gf_batch|dqmc_sweep|serve_open>
///                 --seed <n> --seconds <s> --trace <0|1>
///
/// Workloads (every input is derived from --seed; the library only ever
/// sees the generated inputs).  All use the Hubbard model at t = 1, U = 4
/// (serve_open adds U = 2), beta = 4, with L = 40 slices (dtau = 0.1) and
/// cluster size c = 5: the L and c of the paper's Fig. 10 profile as
/// bench_fig10_profile scales it down (the paper runs L = 100, c = 10).  The lattice size and the amount
/// of work per operation are then chosen so that a 20 s run holds at least
/// 100 operations, enough for a p90 with ten samples beyond it.
///
///   gf_batch    closed loop of qmc::run_fsi_batch calls on the default
///               graph executor: 8 Hubbard matrices per batch (6x6
///               lattice, N = 36), half of them heavy (rows + columns +
///               SPXX), cycled over a pool of 4 distinct batches.  A batch
///               of independent matrices is the paper's coarse-grain unit.
///               Stresses build -> CLS -> BSOFI -> WRP -> measure nodes
///               and the dense kernels under them.
///   dqmc_sweep  closed loop of short qmc::run_dqmc simulations (4x4
///               lattice, 3 warm-up + 3 measurement sweeps where the
///               paper's Fig. 11 runs 100 + 200), cycled over a pool of 32
///               simulation seeds.  Stresses the Metropolis sweep engine
///               (rank-1 updates, wraps, stabilised recomputes) plus one
///               fsi_multi per measurement sweep and spin.
///   serve_open  open loop: Poisson arrivals at kServeRate from four
///               client connections against an in-process serve::Server
///               on loopback TCP (4x4 lattice requests under two model
///               keys, U = 4 and U = 2).  Each request is timed from when
///               it was due, so generator or server stalls count.  The
///               rate keeps the engine about a quarter busy (traced runs
///               report server_utilization), so latency is service time
///               plus moderate queueing, far from saturation.
///
/// Thread budget: the program pins itself to kThreads threads (OpenMP team
/// and graph workers), so figures do not depend on the host's core count.
///
/// Each run: set-up is repeated at least kSetupRepeats times and for at
/// least kSetupBudgetS seconds (the median is setup_s), then the workload
/// runs for --seconds, and every output is checked: bit-identical to a
/// single-worker reference run of the same inputs, plus an independent
/// reference per workload (dense-inverse Green's blocks, particle-hole
/// symmetric density, drift bound).  The last stdout line is one JSON
/// object {correct, attempted, failed, metrics}.  With --trace 0 the
/// metrics are end to end: latency_p90_ms over every operation of the run,
/// setup_s, and peak_heap_mb (the most heap in use after any operation of
/// the run, so a cache that grows shows).  With --trace 1 they are the per-layer ledger (span tracing
/// on; a chrome://tracing sample is written to traces/ under the working
/// directory).

#include <malloc.h>
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fsi/dense/blas.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/serve/server.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using Clock = std::chrono::steady_clock;
namespace metrics = obs::metrics;

constexpr int kThreads = 2;             ///< pinned thread budget
constexpr int kSetupRepeats = 11;       ///< fewest set-ups per run
constexpr double kSetupBudgetS = 1.0;   ///< least time spent setting up

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of \p v, p in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Heap the program holds right now (in-use malloc chunks plus mmapped
/// blocks), in MB.  Unlike resident memory it does not depend on how the
/// allocations happen to spread over the allocator's per-thread arenas.
double heap_in_use_mb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) * 1e-6;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<double> op_ms;   ///< per-operation latency
  double setup_s = 0.0;        ///< median set-up time
  double peak_heap_mb = 0.0;   ///< most heap in use at a sample in the window
  std::vector<Metric> layers;  ///< per-layer ledger (trace mode)

  /// Called after every operation, while its outputs are still alive.
  void sample_heap() { peak_heap_mb = std::max(peak_heap_mb, heap_in_use_mb()); }

  void fail_check(const std::string& why) {
    if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
  }
};

/// Calls \p make at least kSetupRepeats times and for at least
/// kSetupBudgetS seconds, stores the median wall time of one call in
/// \p median_s and returns the last call's product.  Every call starts
/// from an empty workspace pool (emptied outside the timed region), so each
/// one pays first contact: every buffer it acquires is a pool miss.
/// The previous product is destroyed first, outside the timed region, so
/// teardown is not set-up and only one product is alive at a time.
template <class F>
auto median_setup(F&& make, double* median_s) {
  decltype(make()) kept;
  std::vector<double> s;
  const auto t_start = Clock::now();
  while (static_cast<int>(s.size()) < kSetupRepeats ||
         since(t_start) < kSetupBudgetS) {
    kept = decltype(make())();
    sched::WorkspacePool::global().clear();
    const auto t0 = Clock::now();
    kept = make();
    s.push_back(since(t0));
  }
  *median_s = quantile(s, 0.5);
  return kept;
}

// ---------------------------------------------------------------------------
// Per-layer ledger: span totals harvested from the obs registry plus the
// always-on counters, differenced over the timed window.  Span tracing is
// on only while a ledger that was asked for it is alive, so set-up and
// reference runs never reach the totals.

class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {
    for (int i = 0; i < static_cast<int>(metrics::Counter::kCount); ++i)
      start_[i] = metrics::total(static_cast<metrics::Counter>(i));
    obs::set_enabled(on_);
  }
  ~Ledger() { obs::set_enabled(false); }
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Fold the recorded spans into the totals and move the counter window's
  /// end here.  With \p clear the trace buffer is emptied afterwards
  /// (closed loops call this between operations so the per-thread rings
  /// never overflow); the first harvest's events are kept as the
  /// chrome://tracing sample.
  void harvest(bool clear) {
    for (int i = 0; i < static_cast<int>(metrics::Counter::kCount); ++i)
      end_[i] = metrics::total(static_cast<metrics::Counter>(i));
    if (!on_) return;
    if (sample_.empty()) sample_ = obs::chrome_trace_json();
    for (const obs::SpanStats& s : obs::summary()) span_[s.name] += s.total_s;
    if (obs::dropped_events() > 0)
      std::fprintf(stderr, "perfbench: %llu trace events dropped\n",
                   static_cast<unsigned long long>(obs::dropped_events()));
    if (clear) obs::clear();
  }

  /// harvest(true) while other threads may be recording (the serve plane):
  /// stop recording, let spans already closing land, fold, clear, resume.
  /// Spans that straddle the ~2 ms pause are lost.
  void harvest_live() {
    if (!on_) return;
    obs::set_enabled(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    harvest(true);
    obs::set_enabled(true);
  }

  double span(const std::string& name) const {
    const auto it = span_.find(name);
    return it == span_.end() ? 0.0 : it->second;
  }
  double counter(metrics::Counter c) const {
    const int i = static_cast<int>(c);
    return static_cast<double>(end_[i] - start_[i]);
  }
  /// Summed busy seconds of the engine's task-graph nodes.
  double node_busy() const {
    return span("qmc.build_m") + span("fsi.cls") + span("fsi.bsofi") +
           span("fsi.wrap") + span("fsi.mixed_gate") + span("qmc.measure");
  }

  void write_sample(const std::string& path) const {
    if (!on_ || sample_.empty()) return;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(sample_.c_str(), f);
      std::fclose(f);
    }
  }

 private:
  bool on_;
  std::uint64_t start_[static_cast<int>(metrics::Counter::kCount)] = {};
  std::uint64_t end_[static_cast<int>(metrics::Counter::kCount)] = {};
  std::map<std::string, double> span_;
  std::string sample_;
};

/// Measured DGEMM rate at block size \p n inside the thread budget: the
/// practical peak the stage rates are read against.
double dgemm_gflops(index_t n) {
  dense::Matrix a(n, n), b(n, n), c(n, n);
  util::Rng rng(5);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);
  std::vector<double> rates;
  const int reps = std::max(1, static_cast<int>(2e7 / (2.0 * n * n * n)));
  const auto t_end = Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < t_end) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
      dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);
    rates.push_back(2.0 * n * n * n * reps / since(t0) * 1e-9);
  }
  return quantile(rates, 0.5);
}

/// Half a second of dense kernels before anything is timed, so the first
/// set-up does not pay for cores waking up from idle.
void warm_up_cores() {
  const index_t n = 96;
  dense::Matrix a(n, n), b(n, n), c(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) a(i, j) = b(i, j) = 1.0 / n;
  const auto t_end = Clock::now() + std::chrono::milliseconds(500);
  while (Clock::now() < t_end)
    dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);
}

/// Layer metrics every workload reports; a layer a workload does not
/// exercise reports 0.
struct LayerRow {
  double serve_send_lag = 0, serve_queue = 0, serve_batch_wait = 0,
         serve_exec = 0, serve_wire = 0, serve_occupancy = 0,
         serve_utilization = 0;
  double sweep = 0, recompute = 0, greens = 0, dqmc_measure = 0;
  double graph_wall_s = 0;   ///< wall time during which the graph ran
  double engine_wall_s = 0;  ///< wall time the flops are charged to
};

std::vector<Metric> layer_metrics(const Ledger& ledger, const LayerRow& row,
                                  const Outcome& out, index_t block_n) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  const double busy = ledger.node_busy();
  const double pool_hits = ledger.counter(metrics::Counter::PoolHits);
  const double pool_total =
      pool_hits + ledger.counter(metrics::Counter::PoolMisses);
  return {
      {"traced_p50_ms", quantile(out.op_ms, 0.5), "ms"},
      {"dgemm_gflops", dgemm_gflops(block_n), "Gflop/s"},
      {"engine_gflops",
       ratio(ledger.counter(metrics::Counter::Flops), row.engine_wall_s) * 1e-9,
       "Gflop/s"},
      {"mflop_per_op", ledger.counter(metrics::Counter::Flops) / ops * 1e-6,
       "Mflop"},
      {"kernel_calls_per_op",
       ledger.counter(metrics::Counter::KernelCalls) / ops, "count"},
      {"graph_nodes_per_op", ledger.counter(metrics::Counter::ExecNodes) / ops,
       "count"},
      {"recomputes_per_op",
       ledger.counter(metrics::Counter::GreensRecomputes) / ops, "count"},
      {"graph_steals_per_op",
       ledger.counter(metrics::Counter::ExecSteals) / ops, "count"},
      {"graph_utilization", ratio(busy, kThreads * row.graph_wall_s), "ratio"},
      {"pool_hit_rate", ratio(pool_hits, pool_total), "ratio"},
      {"pool_cached_mb",
       static_cast<double>(sched::WorkspacePool::global().cached_bytes()) * 1e-6,
       "MB"},
      {"build_share", ratio(ledger.span("qmc.build_m"), busy), "ratio"},
      {"cls_share", ratio(ledger.span("fsi.cls"), busy), "ratio"},
      {"bsofi_share", ratio(ledger.span("fsi.bsofi"), busy), "ratio"},
      {"wrap_share", ratio(ledger.span("fsi.wrap"), busy), "ratio"},
      {"measure_share", ratio(ledger.span("qmc.measure"), busy), "ratio"},
      {"sweep_share", row.sweep, "ratio"},
      {"recompute_share", row.recompute, "ratio"},
      {"greens_share", row.greens, "ratio"},
      {"dqmc_measure_share", row.dqmc_measure, "ratio"},
      {"send_lag_share", row.serve_send_lag, "ratio"},
      {"queue_wait_share", row.serve_queue, "ratio"},
      {"batch_wait_share", row.serve_batch_wait, "ratio"},
      {"exec_share", row.serve_exec, "ratio"},
      {"wire_share", row.serve_wire, "ratio"},
      {"batch_occupancy", row.serve_occupancy, "requests"},
      {"server_utilization", row.serve_utilization, "ratio"},
  };
}

qmc::HubbardParams hubbard_params(index_t l) {
  qmc::HubbardParams p;
  p.t = 1.0;
  p.u = 4.0;
  p.beta = 4.0;
  p.l = l;
  return p;
}

qmc::FsiBatchOptions batch_options(index_t c, int workers) {
  qmc::FsiBatchOptions o;
  o.num_workers = workers;
  o.omp_threads_per_worker = 1;
  o.cluster_size = c;
  o.precision = Precision::Fp64;
  return o;
}

std::vector<std::vector<double>> serialize_all(
    const std::vector<qmc::Measurements>& ms) {
  std::vector<std::vector<double>> out;
  for (const qmc::Measurements& m : ms) out.push_back(m.serialize());
  return out;
}

// ---------------------------------------------------------------------------
// gf_batch

constexpr index_t kGfSide = 6, kGfSlices = 40;
constexpr int kGfBatch = 8, kGfPool = 4;

struct GfInputs {
  qmc::HubbardModel model;
  index_t c;
  std::vector<std::vector<qmc::FsiBatchTask>> batches;
};

std::unique_ptr<GfInputs> make_gf_inputs(std::uint64_t seed) {
  auto in = std::make_unique<GfInputs>(GfInputs{
      qmc::HubbardModel(qmc::Lattice::rectangle(kGfSide, kGfSide),
                        hubbard_params(kGfSlices)),
      qmc::default_cluster_size(kGfSlices), {}});
  util::Rng rng(seed);
  for (int b = 0; b < kGfPool; ++b) {
    std::vector<qmc::FsiBatchTask> tasks;
    // The wrap offset q moves the selected blocks and with them the wrap
    // work, so every batch carries the same offsets (only the fields come
    // from the seed): batch cost then does not depend on the seed.
    for (int t = 0; t < kGfBatch; ++t) {
      qmc::HsField field(kGfSlices, in->model.num_sites(), rng);
      tasks.push_back(qmc::FsiBatchTask{std::move(field), (t / 2) % in->c,
                                        t % 2 == 0});
    }
    in->batches.push_back(std::move(tasks));
  }
  return in;
}

/// Independent reference: Green's blocks of one task by FSI against the
/// dense LU inverse of the whole Hubbard matrix (the paper's Sec. V-A
/// validation), sampled over the block-column selection.
bool gf_dense_check(const GfInputs& in, std::string* why) {
  const qmc::FsiBatchTask& task = in.batches.front().front();
  const pcyclic::PCyclicMatrix m = in.model.build_m(task.field, qmc::Spin::Up);
  selinv::FsiOptions opts;
  opts.c = in.c;
  opts.q = task.q;
  opts.pattern = pcyclic::Pattern::Columns;
  opts.precision = Precision::Fp64;
  util::Rng unused(0);
  const pcyclic::SelectedInversion sel = selinv::fsi(m, opts, unused);
  const Matrix dense = pcyclic::full_inverse_dense(m);
  const index_t n = in.model.num_sites();
  const auto& keys = sel.keys();
  const std::size_t stride = std::max<std::size_t>(1, keys.size() / 16);
  for (std::size_t i = 0; i < keys.size(); i += stride) {
    const auto [k, l] = keys[i];
    const Matrix ref = pcyclic::dense_block(dense, n, k, l);
    const Matrix& got = sel.at(k, l);
    double err = 0.0, scale = 1.0;
    for (index_t j = 0; j < ref.cols(); ++j)
      for (index_t r = 0; r < ref.rows(); ++r) {
        err = std::max(err, std::fabs(got(r, j) - ref(r, j)));
        scale = std::max(scale, std::fabs(ref(r, j)));
      }
    if (!(err <= 1e-9 * scale)) {
      *why = "gf_batch: FSI block (" + std::to_string(k) + "," +
             std::to_string(l) + ") differs from the dense inverse: max-abs " +
             std::to_string(err) + " vs scale " + std::to_string(scale);
      return false;
    }
  }
  return true;
}

Outcome run_gf_batch(std::uint64_t seed, double seconds, bool trace) {
  Outcome out;
  const std::unique_ptr<GfInputs> in = median_setup(
      [&] {
        auto fresh = make_gf_inputs(seed);
        // First contact: the first batch grows the workspace pool.
        (void)qmc::run_fsi_batch(fresh->model, fresh->batches.front(),
                                 batch_options(fresh->c, kThreads));
        return fresh;
      },
      &out.setup_s);

  std::vector<std::vector<std::vector<double>>> ref;
  for (const auto& tasks : in->batches)
    ref.push_back(serialize_all(
        qmc::run_fsi_batch(in->model, tasks, batch_options(in->c, 1))));

  const qmc::FsiBatchOptions opts = batch_options(in->c, kThreads);
  Ledger window(trace);
  double wall = 0.0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0; out.attempted == 0 || Clock::now() < t_end; ++i) {
    const std::size_t b = i % in->batches.size();
    ++out.attempted;
    const auto t0 = Clock::now();
    const std::int64_t s0 = obs::now_ns();
    try {
      const auto got = qmc::run_fsi_batch(in->model, in->batches[b], opts);
      const double dt = since(t0);
      obs::record_interval("perfbench.gf_batch", s0, obs::now_ns());
      out.op_ms.push_back(dt * 1e3);
      wall += dt;
      out.sample_heap();
      if (serialize_all(got) != ref[b]) {
        ++out.failed;
        out.fail_check("gf_batch: batch output differs from the 1-worker run");
      } else {
        for (const qmc::Measurements& m : got)
          if (!(m.density() > 0.0 && m.density() < 2.0)) {
            ++out.failed;
            out.fail_check("gf_batch: density outside (0, 2)");
            break;
          }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail_check(std::string("gf_batch: ") + e.what());
    }
    window.harvest(true);
  }
  std::string why;
  if (!gf_dense_check(*in, &why)) out.fail_check(why);

  if (trace) {
    LayerRow row;
    row.graph_wall_s = wall;
    row.engine_wall_s = wall;
    out.layers = layer_metrics(window, row, out, in->model.num_sites());
    window.write_sample("traces/gf_batch-" + std::to_string(seed) + ".trace.json");
  }
  return out;
}

// ---------------------------------------------------------------------------
// dqmc_sweep

constexpr index_t kDqmcSide = 4, kDqmcSlices = 40;
// The cost of one short simulation depends on its seed (accepted flips,
// recomputes); a pool of 32 keeps the mix, and with it the run's latency,
// nearly the same for every --seed.
constexpr int kDqmcPool = 32;

struct DqmcInputs {
  qmc::HubbardModel model;
  std::vector<std::uint64_t> seeds;
};

qmc::DqmcOptions dqmc_options(std::uint64_t seed) {
  qmc::DqmcOptions o;
  o.warmup_sweeps = 3;
  o.measurement_sweeps = 3;
  o.seed = seed;
  return o;
}

Outcome run_dqmc_sweep(std::uint64_t seed, double seconds, bool trace) {
  Outcome out;
  const std::unique_ptr<DqmcInputs> in = median_setup(
      [&] {
        auto fresh = std::make_unique<DqmcInputs>(DqmcInputs{
            qmc::HubbardModel(qmc::Lattice::rectangle(kDqmcSide, kDqmcSide),
                              hubbard_params(kDqmcSlices)),
            {}});
        util::Rng rng(seed);
        for (int i = 0; i < kDqmcPool; ++i) fresh->seeds.push_back(rng());
        qmc::DqmcOptions warm = dqmc_options(fresh->seeds.front());
        warm.warmup_sweeps = 0;
        warm.measurement_sweeps = 1;
        (void)qmc::run_dqmc(fresh->model, warm);
        return fresh;
      },
      &out.setup_s);
  const std::vector<std::uint64_t>& seeds = in->seeds;

  // First result of each seed; repeats must agree to round-off (the
  // measurement reductions are OpenMP sums, so bit-identity is not owed).
  std::vector<std::vector<double>> first(seeds.size());
  Ledger window(trace);
  double wall = 0.0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0; out.attempted == 0 || Clock::now() < t_end; ++i) {
    const std::size_t k = i % seeds.size();
    ++out.attempted;
    const auto t0 = Clock::now();
    const std::int64_t s0 = obs::now_ns();
    try {
      const qmc::DqmcResult r = qmc::run_dqmc(in->model, dqmc_options(seeds[k]));
      const double dt = since(t0);
      obs::record_interval("perfbench.dqmc", s0, obs::now_ns());
      out.op_ms.push_back(dt * 1e3);
      wall += dt;
      out.sample_heap();
      const std::vector<double> got = r.measurements.serialize();
      std::string why;
      if (!all_finite(got)) why = "non-finite measurement";
      else if (!(r.stats.max_drift <= 1e-6))
        why = "wrap drift " + std::to_string(r.stats.max_drift) + " > 1e-6";
      else if (!(r.acceptance_rate > 0.0 && r.acceptance_rate <= 1.0))
        why = "acceptance rate outside (0, 1]";
      // Half filling on a bipartite lattice: particle-hole symmetry pins
      // n_up + n_dn = 1 per site for every HS configuration.
      else if (!(std::fabs(r.measurements.density() - 1.0) <= 1e-9))
        why = "density " + std::to_string(r.measurements.density()) + " != 1";
      else if (first[k].empty())
        first[k] = got;
      else
        for (std::size_t j = 0; j < got.size(); ++j)
          if (!(std::fabs(got[j] - first[k][j]) <=
                1e-10 * std::max(1.0, std::fabs(first[k][j])))) {
            why = "repeat of the same seed disagrees";
            break;
          }
      if (!why.empty()) {
        ++out.failed;
        out.fail_check("dqmc_sweep: " + why);
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail_check(std::string("dqmc_sweep: ") + e.what());
    }
    window.harvest(true);
  }

  if (trace) {
    LayerRow row;
    row.sweep = ratio(window.span("dqmc.sweep"), wall);
    row.recompute = ratio(window.span("greens.recompute"), wall);
    row.greens = ratio(window.span("dqmc.greens"), wall);
    row.dqmc_measure = ratio(window.span("dqmc.measure"), wall);
    row.graph_wall_s = window.span("dqmc.greens");
    row.engine_wall_s = wall;
    out.layers = layer_metrics(window, row, out, in->model.num_sites());
    window.write_sample("traces/dqmc_sweep-" + std::to_string(seed) + ".trace.json");
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve_open

constexpr std::uint32_t kServeSide = 4, kServeSlices = 40;
constexpr int kServePool = 32;
constexpr int kServeClients = 4;
/// Offered requests per second.  On a 4-vCPU x86 KVM guest at this
/// thread budget the engine is busy ~25% of the time at 50/s (~50% at
/// 100/s, ~90% at 240/s with batches of ~6), so 50/s is a moderate load.
constexpr double kServeRate = 50.0;

struct ServeRig {
  std::vector<serve::InvertRequest> reqs;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;

  ~ServeRig() {
    for (auto& c : clients) c->close();
    clients.clear();
    if (server) server->stop();
  }
};

std::vector<serve::InvertRequest> make_serve_requests(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<serve::InvertRequest> reqs;
  for (int i = 0; i < kServePool; ++i) {
    serve::InvertRequest r;
    r.lx = kServeSide;
    r.ly = kServeSide;
    r.l = kServeSlices;
    // Two model keys (U = 4 and U = 2), so two batch queues and their
    // adaptive policies share the engine.
    r.u = i % 4 < 2 ? 4.0 : 2.0;
    r.beta = 4.0;
    // Fixed wrap offsets, as in gf_batch: only the fields vary by seed.
    r.q = static_cast<std::int32_t>((i / 2) % qmc::default_cluster_size(r.l));
    r.field = serve::random_field(r.lx, r.ly, r.l, rng());
    r.time_dependent = i % 2 == 0;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

std::unique_ptr<ServeRig> start_rig(std::uint64_t seed) {
  auto rig = std::make_unique<ServeRig>();
  rig->reqs = make_serve_requests(seed);
  const serve::InvertRequest& warm = rig->reqs.front();
  serve::ServerOptions o;
  o.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
  o.queue_depth = 512;
  o.batch = batch_options(0, kThreads);
  rig->server = std::make_unique<serve::Server>(std::move(o));
  rig->server->start();
  for (int i = 0; i < kServeClients; ++i) {
    rig->clients.push_back(
        std::make_unique<serve::Client>(rig->server->endpoint()));
    const serve::InvertResponse r = rig->clients.back()->request(warm);
    if (r.status != serve::Status::Ok)
      throw std::runtime_error("serve_open: warm-up request failed: " + r.message);
  }
  return rig;
}

/// The in-process engine answer a served request must equal bit for bit.
std::vector<double> serve_reference(const serve::InvertRequest& req) {
  qmc::HubbardParams params = hubbard_params(req.l);
  params.t = req.t;
  params.u = req.u;
  params.beta = req.beta;
  const qmc::HubbardModel model(qmc::Lattice::rectangle(req.lx, req.ly),
                                params);
  const index_t c = serve::effective_cluster(req);
  std::vector<qmc::FsiBatchTask> tasks;
  tasks.push_back(qmc::FsiBatchTask{
      qmc::HsField::deserialize(req.l, model.num_sites(), req.field.data(),
                                req.field.size()),
      serve::resolve_q(req, c), req.time_dependent});
  return qmc::run_fsi_batch(model, tasks, batch_options(c, 1))
      .front()
      .serialize();
}

struct InFlight {
  std::size_t req = 0;
  Clock::time_point due, sent;
  std::future<serve::InvertResponse> reply;
};

Outcome run_serve_open(std::uint64_t seed, double seconds, bool trace) {
  Outcome out;
  std::unique_ptr<ServeRig> rig =
      median_setup([&] { return start_rig(seed); }, &out.setup_s);
  const std::vector<serve::InvertRequest> reqs = rig->reqs;

  std::vector<std::vector<double>> ref;
  for (const auto& r : reqs) ref.push_back(serve_reference(r));

  // Poisson arrival schedule from the seed.
  util::Rng arrivals(seed ^ 0x5eedULL);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done_sending = false;
  LayerRow row;
  double exec_wall = 0.0, lag_s = 0.0, queue_s = 0.0, bwait_s = 0.0,
         exec_s = 0.0, total_s = 0.0, occupancy = 0.0;
  std::uint64_t ok = 0;

  Ledger window(trace);
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done_sending; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      serve::InvertResponse resp;
      try {
        resp = f.reply.get();
      } catch (const std::exception& e) {
        resp.status = serve::Status::Error;
        resp.message = e.what();
      }
      const auto done = Clock::now();
      const double latency = std::chrono::duration<double>(done - f.due).count();
      out.op_ms.push_back(latency * 1e3);
      out.sample_heap();
      if (resp.status != serve::Status::Ok) {
        ++out.failed;
        out.fail_check(std::string("serve_open: status ") +
                       serve::status_name(resp.status) + " " + resp.message);
        continue;
      }
      if (!same_bits(resp.measurements, ref[f.req])) {
        ++out.failed;
        out.fail_check("serve_open: response differs from the in-process engine");
        continue;
      }
      ++ok;
      const double q = static_cast<double>(resp.queue_wait_ns) * 1e-9;
      const double bw = static_cast<double>(resp.batch_wait_ns) * 1e-9;
      const double ex = static_cast<double>(resp.exec_ns) * 1e-9;
      lag_s += std::chrono::duration<double>(f.sent - f.due).count();
      queue_s += q;
      bwait_s += bw;
      exec_s += ex;
      total_s += latency;
      occupancy += resp.batch_size;
      exec_wall += resp.batch_size > 0 ? ex / resp.batch_size : ex;
    }
  });
  // Traced runs: the engine records ~50 spans per request, more than the
  // per-thread trace rings hold over a run, so fold them once a second.
  bool stop_harvest = false;
  std::thread harvester([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (trace && !cv.wait_for(lock, std::chrono::seconds(1),
                                 [&] { return stop_harvest; })) {
      lock.unlock();
      window.harvest_live();
      lock.lock();
    }
  });

  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration<double>(seconds);
  auto due = t0;
  for (std::size_t i = 0; i == 0 || due < t_end; ++i) {
    // Sleep, then spin the last stretch: a sleeping thread wakes late by a
    // host-dependent amount, which would land in every request's latency.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    InFlight f;
    f.req = i % reqs.size();
    f.due = due;
    f.sent = Clock::now();
    try {
      f.reply = rig->clients[i % rig->clients.size()]->submit(reqs[f.req]);
    } catch (const std::exception& e) {
      std::promise<serve::InvertResponse> p;
      serve::InvertResponse r;
      r.status = serve::Status::Error;
      r.message = e.what();
      p.set_value(std::move(r));
      f.reply = p.get_future();
    }
    ++out.attempted;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(f));
    }
    cv.notify_all();
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - arrivals.uniform()) /
                                      kServeRate));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
    stop_harvest = true;
  }
  cv.notify_all();
  collector.join();
  harvester.join();
  const double window_s = since(t0);
  rig.reset();  // stop the server so no thread records spans any more
  window.harvest(false);

  if (trace) {
    row.serve_send_lag = ratio(lag_s, total_s);
    row.serve_queue = ratio(queue_s, total_s);
    row.serve_batch_wait = ratio(bwait_s, total_s);
    row.serve_exec = ratio(exec_s, total_s);
    row.serve_wire = ratio(total_s - lag_s - queue_s - bwait_s - exec_s, total_s);
    row.serve_occupancy = ratio(occupancy, static_cast<double>(ok));
    row.serve_utilization = ratio(exec_wall, window_s);
    row.graph_wall_s = exec_wall;
    row.engine_wall_s = exec_wall;
    out.layers = layer_metrics(window, row, out, kServeSide * kServeSide);
    window.write_sample("traces/serve_open-" + std::to_string(seed) + ".trace.json");
  }
  return out;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_result(const Outcome& out, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    omp_set_dynamic(0);
    omp_set_num_threads(kThreads);
    warm_up_cores();
    Outcome out;
    if (args.workload == "gf_batch")
      out = run_gf_batch(args.seed, args.seconds, args.trace);
    else if (args.workload == "dqmc_sweep")
      out = run_dqmc_sweep(args.seed, args.seconds, args.trace);
    else if (args.workload == "serve_open")
      out = run_serve_open(args.seed, args.seconds, args.trace);
    else
      throw std::invalid_argument("unknown workload '" + args.workload + "'");

    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu ops, p50 %.3f ms, p90 %.3f ms, "
                 "setup %.4f s, peak heap %.2f MB\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(out.attempted),
                 quantile(out.op_ms, 0.5), quantile(out.op_ms, 0.9),
                 out.setup_s, out.peak_heap_mb);
    if (args.trace) {
      print_result(out, out.layers);
    } else {
      print_result(out, {{"latency_p90_ms", quantile(out.op_ms, 0.9), "ms"},
                         {"setup_s", out.setup_s, "s"},
                         {"peak_heap_mb", out.peak_heap_mb, "MB"}});
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
