/// Integration tests for the full DQMC driver (Alg. 4) and the parallel
/// multi-Green's-function application (Alg. 3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/util/flops.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;

TEST(DefaultClusterSize, PicksDivisorNearSqrt) {
  EXPECT_EQ(default_cluster_size(100), 10);
  EXPECT_EQ(default_cluster_size(64), 8);
  EXPECT_EQ(default_cluster_size(12), 3);  // sqrt(12) ~ 3.46 -> 3 is closest
  EXPECT_EQ(default_cluster_size(1), 1);
  const index_t c = default_cluster_size(36);
  EXPECT_EQ(36 % c, 0);
  EXPECT_EQ(c, 6);
}

DqmcResult small_run(GreensEngine engine, std::uint64_t seed = 42,
                     index_t warm = 4, index_t meas = 6) {
  HubbardParams p;
  p.t = 1.0;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  HubbardModel model(Lattice::rectangle(3, 2), p);
  DqmcOptions opt;
  opt.warmup_sweeps = warm;
  opt.measurement_sweeps = meas;
  opt.cluster_size = 4;
  opt.engine = engine;
  opt.seed = seed;
  return run_dqmc(model, opt);
}

TEST(Dqmc, RunsAndProducesSaneObservables) {
  DqmcResult r = small_run(GreensEngine::Fsi);
  EXPECT_EQ(r.measurements.samples(), 6.0);
  // Half-filled repulsive Hubbard: sign-problem-free.
  EXPECT_DOUBLE_EQ(r.measurements.avg_sign(), 1.0);
  EXPECT_GT(r.acceptance_rate, 0.05);
  EXPECT_LT(r.acceptance_rate, 0.95);
  // Densities near half filling (statistical, generous tolerance).
  EXPECT_NEAR(r.measurements.density(), 1.0, 0.2);
  // Repulsion suppresses double occupancy below the uncorrelated 1/4.
  EXPECT_LT(r.measurements.double_occupancy(), 0.30);
  EXPECT_GT(r.measurements.double_occupancy(), 0.05);
  // Local moment between uncorrelated (0.5) and fully localised (1.0).
  EXPECT_GT(r.measurements.local_moment(), 0.4);
  EXPECT_LT(r.measurements.local_moment(), 1.0);
  EXPECT_LT(r.stats.max_drift, 1e-6);
  EXPECT_GT(r.timings.total_seconds, 0.0);
}

TEST(Dqmc, EnginesAgreeOnTheSameStream) {
  // FSI and MKL-style engines differ only in parallelisation; with the same
  // seed they must produce the same Markov chain and (near-)identical
  // measurements.
  DqmcResult fsi_run = small_run(GreensEngine::Fsi);
  DqmcResult mkl_run = small_run(GreensEngine::MklStyle);
  EXPECT_EQ(fsi_run.measurements.samples(), mkl_run.measurements.samples());
  EXPECT_NEAR(fsi_run.acceptance_rate, mkl_run.acceptance_rate, 1e-12);
  EXPECT_NEAR(fsi_run.measurements.density(), mkl_run.measurements.density(),
              1e-8);
  EXPECT_NEAR(fsi_run.measurements.double_occupancy(),
              mkl_run.measurements.double_occupancy(), 1e-8);
  EXPECT_NEAR(fsi_run.measurements.spxx(1, 0), mkl_run.measurements.spxx(1, 0),
              1e-8);
}

TEST(Dqmc, DeterministicForFixedSeed) {
  DqmcResult a = small_run(GreensEngine::Fsi, 77);
  DqmcResult b = small_run(GreensEngine::Fsi, 77);
  EXPECT_DOUBLE_EQ(a.measurements.density(), b.measurements.density());
  EXPECT_DOUBLE_EQ(a.acceptance_rate, b.acceptance_rate);
  DqmcResult c = small_run(GreensEngine::Fsi, 78);
  EXPECT_NE(a.measurements.density(), c.measurements.density());
}

TEST(Dqmc, SingleSiteAtomicLimitIsExact) {
  // N = 1, K = 0: no Trotter error, so DQMC must reproduce the atomic
  // limit <n_up n_dn> = e^{-beta U / 4} / (2 e^{-beta U/4} + 2 e^{beta U/4})
  // within Monte Carlo error.
  HubbardParams p;
  p.t = 1.0;  // irrelevant: single site has no neighbours
  p.u = 4.0;
  p.beta = 2.0;
  p.l = 8;
  HubbardModel model(Lattice::chain(1), p);
  DqmcOptions opt;
  opt.warmup_sweeps = 200;
  opt.measurement_sweeps = 2000;
  opt.cluster_size = 4;
  opt.measure_time_dependent = false;
  opt.seed = 7;
  DqmcResult r = run_dqmc(model, opt);

  const double w_single = std::exp(p.beta * p.u / 4.0);
  const double w_other = std::exp(-p.beta * p.u / 4.0);
  const double docc_exact = w_other / (2.0 * w_other + 2.0 * w_single);
  EXPECT_NEAR(r.measurements.double_occupancy(), docc_exact, 0.02);
  EXPECT_NEAR(r.measurements.density(), 1.0, 0.05);
}

TEST(Dqmc, TimeDependentToggleControlsSpxx) {
  HubbardParams p;
  p.l = 4;
  HubbardModel model(Lattice::chain(2), p);
  DqmcOptions opt;
  opt.warmup_sweeps = 1;
  opt.measurement_sweeps = 2;
  opt.cluster_size = 2;
  opt.measure_time_dependent = false;
  DqmcResult r = run_dqmc(model, opt);
  EXPECT_DOUBLE_EQ(r.measurements.spxx(1, 0), 0.0);  // never accumulated
  opt.measure_time_dependent = true;
  DqmcResult r2 = run_dqmc(model, opt);
  EXPECT_NE(r2.measurements.spxx(1, 0), 0.0);
}

TEST(Dqmc, InvalidClusterSizeThrows) {
  HubbardParams p;
  p.l = 8;
  HubbardModel model(Lattice::chain(2), p);
  DqmcOptions opt;
  opt.cluster_size = 3;  // does not divide 8
  EXPECT_THROW(run_dqmc(model, opt), util::CheckError);
}

// ---------------------------------------------------------------------------

TEST(MultiGf, RankCountDoesNotChangeTheResult) {
  HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  HubbardModel model(Lattice::chain(3), p);
  MultiGfOptions opt;
  opt.num_matrices = 4;
  opt.cluster_size = 2;
  opt.seed = 11;

  opt.num_ranks = 1;
  MultiGfResult serial = run_parallel_fsi(model, opt);
  opt.num_ranks = 4;
  MultiGfResult parallel = run_parallel_fsi(model, opt);

  EXPECT_DOUBLE_EQ(serial.global.samples(), 4.0);
  EXPECT_DOUBLE_EQ(parallel.global.samples(), 4.0);
  // Same root-generated fields and per-task q draws; the scheduler merge is
  // task-ordered, so the results are in fact bit-identical (test_sched
  // asserts that) — here the physics-level agreement is what matters.
  EXPECT_NEAR(serial.global.density(), parallel.global.density(), 1e-8);
  EXPECT_NEAR(serial.global.double_occupancy(),
              parallel.global.double_occupancy(), 1e-8);
  EXPECT_GT(parallel.flops, 0u);
  EXPECT_GT(parallel.gflops(), 0.0);
}

TEST(MultiGf, FlopsAreADeltaOfTheProcessCounter) {
  // Work counted before the call must survive it: the process-wide counter
  // never decreases, and result.flops is its delta over the call.
  HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  HubbardModel model(Lattice::chain(3), p);
  MultiGfOptions opt;
  opt.num_matrices = 4;
  opt.num_ranks = 2;
  opt.cluster_size = 2;

  util::flops::add(std::uint64_t{1} << 40);  // earlier, unrelated work
  const std::uint64_t before = util::flops::total();
  const MultiGfResult r = run_parallel_fsi(model, opt);
  const std::uint64_t after = util::flops::total();
  ASSERT_GE(after, before);
  EXPECT_GT(r.flops, 0u);
  EXPECT_EQ(r.flops, after - before);
}

TEST(MultiGf, IndivisibleWorkSucceeds) {
  // The scheduler places individual tasks, so the batch size no longer has
  // to divide the rank count (the old static split threw here).
  HubbardParams p;
  p.l = 4;
  HubbardModel model(Lattice::chain(2), p);
  MultiGfOptions opt;
  opt.num_matrices = 3;
  opt.num_ranks = 2;
  const MultiGfResult r = run_parallel_fsi(model, opt);
  EXPECT_DOUBLE_EQ(r.global.samples(), 3.0);
  EXPECT_EQ(r.sched.tasks, 3u);
  EXPECT_EQ(r.sched.workers, 2);
}

}  // namespace
