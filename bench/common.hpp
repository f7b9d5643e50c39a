#pragma once
/// \file common.hpp
/// \brief Shared helpers for the figure/table reproduction benches.
///
/// Every bench binary regenerates one table or figure of the paper (see
/// DESIGN.md experiment index) and prints the measured series side by side
/// with the paper's expected shape.  Values derived from the analytic
/// scaling model (thread counts and node counts this host does not have —
/// see perfmodel.hpp) are explicitly labelled "modeled".

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fsi/dense/blas.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/report.hpp"
#include "fsi/obs/telemetry.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/selinv/perfmodel.hpp"
#include "fsi/util/cli.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/table.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::bench {

using dense::index_t;

/// Random Hubbard matrix with the paper's validation parameters
/// (t, beta, sigma, U) = (1, 1, 1, 2) unless overridden.
inline pcyclic::PCyclicMatrix make_hubbard(index_t n, index_t l,
                                           std::uint64_t seed = 2016,
                                           double u = 2.0, double beta = 1.0,
                                           qmc::Spin spin = qmc::Spin::Up) {
  qmc::HubbardParams p;
  p.t = 1.0;
  p.u = u;
  p.beta = beta;
  p.l = l;
  // A chain lattice of n sites gives the N x N kinetic blocks of Sec. V-A.
  qmc::HubbardModel model(qmc::Lattice::chain(n), p);
  util::Rng rng(seed);
  qmc::HsField field(l, n, rng);
  return model.build_m(field, spin);
}

/// Timed + flop-counted run of one FSI call; a thin view over FsiStats (the
/// field-by-field copying this used to do lives in selinv::fsi now).
struct StageProfile {
  selinv::FsiStats stats;
  selinv::StageTimes seconds;
  std::uint64_t flops_cls = 0, flops_bsofi = 0, flops_wrap = 0;

  StageProfile() = default;
  explicit StageProfile(const selinv::FsiStats& s)
      : stats(s),
        seconds{s.seconds_cls, s.seconds_bsofi, s.seconds_wrap},
        flops_cls(s.flops_cls),
        flops_bsofi(s.flops_bsofi),
        flops_wrap(s.flops_wrap) {}

  double gflops(double s, std::uint64_t f) const {
    return s > 0 ? static_cast<double>(f) / s * 1e-9 : 0.0;
  }
  double total_seconds() const { return seconds.total(); }
  std::uint64_t total_flops() const {
    return flops_cls + flops_bsofi + flops_wrap;
  }
};

inline StageProfile profile_fsi(const pcyclic::PCyclicMatrix& m, index_t c,
                                pcyclic::Pattern pattern, index_t q = 0) {
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = q;
  opts.pattern = pattern;
  // Committed fig8/fig10 baselines were recorded with the OpenMP-loop
  // pipeline, whose stage seconds are wall-clock deltas; the graph executor
  // reports summed node-busy seconds instead, which would shift every gated
  // per-stage ratio.  Keep the profiling benches pinned to the loop path.
  opts.exec = selinv::FsiOptions::Exec::OmpLoops;
  util::Rng rng(1);
  selinv::FsiStats stats;
  // Pre-factored BlockOps, as in the DQMC production loop: the wrapping
  // stage then counts only the paper's 3(bL - b^2) N^3 move flops.
  pcyclic::BlockOps ops(m);
  (void)selinv::fsi(m, ops, opts, rng, &stats);
  return StageProfile(stats);
}

/// Pins the OpenMP team size to one thread for its lifetime and restores the
/// caller's size on exit, so a "1-thread" or "single-core" measurement is
/// taken at one thread whatever the process default is.
class OneThread {
 public:
  OneThread() : saved_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~OneThread() { omp_set_num_threads(saved_); }
  OneThread(const OneThread&) = delete;
  OneThread& operator=(const OneThread&) = delete;

 private:
  int saved_;
};

/// Apply the uniform obs flags every bench accepts:
///   --trace / --no-trace       force span tracing on/off (overrides the
///                              FSI_TRACE environment value either way)
///   --no-health                disable the numerical-health monitor
///   --health-sample N          residual spot-check period (0 = off)
/// Returns whether tracing is on.
inline bool init_trace(const util::Cli& cli) {
  if (cli.has("no-trace"))
    obs::set_enabled(false);
  else if (cli.has("trace"))
    obs::set_enabled(true);
  if (cli.has("no-health")) obs::health::set_enabled(false);
  if (cli.has("health-sample"))
    obs::health::set_sample_every(
        cli.get_int("health-sample", obs::health::sample_every()));
  obs::metrics::set(
      obs::metrics::Gauge::HealthSampleEvery,
      obs::health::enabled() ? obs::health::sample_every() : 0.0);
  return obs::enabled();
}

/// If tracing is on: print the per-span summary and write the
/// chrome://tracing JSON artifact (to $FSI_TRACE_FILE, default
/// "bench/artifacts/<bench_name>.trace.json" — see obs::artifact_dir()).
/// Call once at the end of a bench.
inline void finish_trace(const std::string& bench_name) {
  if (!obs::enabled()) return;
  std::printf("\n[trace] per-span summary:\n%s", obs::summary_str().c_str());
  // Bare basename: write_trace_if_enabled routes it under artifact_dir().
  const std::string path = obs::write_trace_if_enabled(bench_name);
  if (!path.empty())
    std::printf("[trace] chrome://tracing JSON written to %s (open in "
                "chrome://tracing or ui.perfetto.dev)\n", path.c_str());
}

/// End-of-bench epilogue: print the health summary (when the monitor is
/// on), write the schema-versioned BENCH_<name>.json telemetry file and the
/// trace artifacts (both under obs::artifact_dir(): $FSI_BENCH_DIR, default
/// bench/artifacts).  Every bench main calls this exactly once before
/// returning.
inline void finish_bench(const obs::BenchTelemetry& telemetry) {
  if (obs::health::enabled()) {
    std::printf("\n[health] numerical-health summary:\n%s",
                obs::health::report().str().c_str());
  }
  const std::string path = telemetry.write();
  if (!path.empty())
    std::printf("[bench] telemetry written to %s\n", path.c_str());
  else
    std::fprintf(stderr, "[bench] could not write telemetry for %s\n",
                 telemetry.bench_name().c_str());
  finish_trace(telemetry.bench_name());
}

/// Measured DGEMM rate at block size n (the "practical peak" reference of
/// Fig. 8 top): the median over kDgemmLoops timed loops of \p reps calls
/// each, after one warm-up call, so one preempted loop cannot move it.
inline double dgemm_gflops(index_t n, int reps = 0) {
  constexpr int kDgemmLoops = 5;
  if (reps <= 0)  // aim for ~60 ms per loop so small sizes are not noisy
    reps = std::max<int>(3, static_cast<int>(2e9 / (2.0 * n * n * n)));
  dense::Matrix a(n, n), b(n, n), c(n, n);
  util::Rng rng(5);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);  // warm
  std::vector<double> rates;
  for (int loop = 0; loop < kDgemmLoops; ++loop) {
    util::WallTimer t;
    for (int r = 0; r < reps; ++r)
      dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);
    rates.push_back(2.0 * n * n * n * reps / t.seconds() * 1e-9);
  }
  std::nth_element(rates.begin(), rates.begin() + kDgemmLoops / 2,
                   rates.end());
  return rates[kDgemmLoops / 2];
}

inline void print_header(const char* figure, const char* claim) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper result: %s\n", claim);
  std::printf("=====================================================================\n");
}

inline void print_host_note() {
  std::printf(
      "[host note] this host has %u hardware threads; multi-thread/multi-node\n"
      "rows marked 'modeled' use the calibrated scaling model of\n"
      "fsi/selinv/perfmodel.hpp (see DESIGN.md, substitutions).\n\n",
      std::thread::hardware_concurrency());
}

}  // namespace fsi::bench
