/// Mixed-precision pipeline tests: the stages at T = float against
/// T = double (BlockOpsF moves, cluster products, wraps), the health gate's
/// accept/fallback behaviour and its determinism, end-to-end mixed-vs-fp64
/// accuracy through both the single-call driver and the batched graph
/// engine, the batch engine's per-task contract with fsi_multi, and the
/// precision plumbing helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/precision.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/check.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using dense::MatrixF;
using fsi::testing::expect_close;

/// Restore the process-wide mixed gate on scope exit (tests below lower it
/// to force fallbacks).
struct GateGuard {
  selinv::MixedGate saved = selinv::mixed_gate();
  ~GateGuard() { selinv::set_mixed_gate(saved); }
};

/// |fp32 result - fp64 twin| within float round-off for O(1) blocks.
constexpr double kFloatTol = 1e-4;

pcyclic::PCyclicMatrix hubbard_matrix(index_t n, index_t l, double u,
                                      double beta, std::uint64_t seed) {
  qmc::HubbardParams p;
  p.u = u;
  p.beta = beta;
  p.l = l;
  qmc::HubbardModel model(qmc::Lattice::chain(n), p);
  util::Rng rng(seed);
  qmc::HsField field(l, n, rng);
  return model.build_m(field, qmc::Spin::Up);
}

/// ||(M G - I) block||_max of one stored block of a Columns (block row k
/// of column \p line, M G = I) or Rows (block column k of row \p line,
/// G M = I) selection — probe_residual's formula at any position.
double residual_at(const pcyclic::PCyclicMatrix& m,
                   const pcyclic::SelectedInversion& s, index_t line,
                   index_t k) {
  const index_t n = m.block_size(), l = m.num_blocks();
  const auto no = dense::Trans::No;
  Matrix r;
  if (s.pattern() == pcyclic::Pattern::Columns) {
    r = Matrix::copy_of(s.at(k, line));
    if (k >= 1)
      dense::gemm(no, no, -1.0, m.b(k), s.at(k - 1, line), 1.0, r);
    else
      dense::gemm(no, no, 1.0, m.b(0), s.at(l - 1, line), 1.0, r);
  } else {
    r = Matrix::copy_of(s.at(line, k));
    if (k + 1 < l)
      dense::gemm(no, no, -1.0, s.at(line, k + 1), m.b(k + 1), 1.0, r);
    else
      dense::gemm(no, no, 1.0, s.at(line, 0), m.b(0), 1.0, r);
  }
  if (k == line)
    for (index_t d = 0; d < n; ++d) r(d, d) -= 1.0;
  return dense::max_abs(r.view());
}

/// The residual at every (line, k) position of a Columns/Rows selection.
std::vector<double> residuals_everywhere(const pcyclic::PCyclicMatrix& m,
                                         const pcyclic::SelectedInversion& s) {
  std::vector<double> out;
  for (const index_t line : s.selection().indices())
    for (index_t k = 0; k < m.num_blocks(); ++k)
      out.push_back(residual_at(m, s, line, k));
  return out;
}

/// The \p fraction quantile of \p v (0.5 = median).
double quantile(std::vector<double> v, double fraction) {
  const auto i = static_cast<std::size_t>(fraction * (v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

/// A gate that accepts any finite fp32 run.
constexpr selinv::MixedGate kAcceptAll{
    std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::infinity()};

const pcyclic::Pattern kAllPatterns[] = {
    pcyclic::Pattern::Diagonal, pcyclic::Pattern::SubDiagonal,
    pcyclic::Pattern::Columns, pcyclic::Pattern::Rows,
    pcyclic::Pattern::AllDiagonals};

// ---- fp32 stages vs the same stages at fp64 ------------------------------

TEST(BlockOpsF, EveryMoveMatchesFp64TwinAtEveryPosition) {
  // All four moves at every (k, l) — covers the twelve boundary cases
  // (diagonal / first / last row / column / corners) the fp64 BlockOps
  // implements, promised in adjacency.cpp to stay in lockstep.
  const index_t n = 4, l = 6;
  util::Rng rng(0xAD);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, l, rng);
  const pcyclic::BlockOps ops(m);
  const pcyclic::BlockOpsF ops_f(m);

  for (index_t k = 0; k < l; ++k) {
    for (index_t col = 0; col < l; ++col) {
      // A reproducible O(1) "current block" to move from.
      util::Rng grng(static_cast<std::uint64_t>(k * 100 + col));
      Matrix g = fsi::testing::random_matrix(n, n, grng);
      MatrixF g_f = dense::demoted(g.view());

      SCOPED_TRACE("k=" + std::to_string(k) + " l=" + std::to_string(col));
      expect_close(dense::promoted(ops_f.up(k, col, g_f).view()),
                   ops.up(k, col, g), kFloatTol, "up");
      expect_close(dense::promoted(ops_f.down(k, col, g_f).view()),
                   ops.down(k, col, g), kFloatTol, "down");
      expect_close(dense::promoted(ops_f.left(k, col, g_f).view()),
                   ops.left(k, col, g), kFloatTol, "left");
      expect_close(dense::promoted(ops_f.right(k, col, g_f).view()),
                   ops.right(k, col, g), kFloatTol, "right");
    }
  }
}

TEST(ClusterMixed, ProductsAndReducedMatrixMatchFp64) {
  const index_t n = 6, l = 12, c = 3, q = 1;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC1);

  const index_t b = l / c;
  for (index_t i = 0; i < b; ++i) {
    MatrixF prod_f = selinv::cluster_product<float>(m, c, q, i);
    Matrix prod = selinv::cluster_product(m, c, q, i);
    expect_close(dense::promoted(prod_f.view()), prod, kFloatTol,
                 "cluster product");
  }

  pcyclic::PCyclicMatrix red_mixed = selinv::cluster<float>(m, c, q);
  pcyclic::PCyclicMatrix red = selinv::cluster(m, c, q);
  ASSERT_EQ(red_mixed.num_blocks(), red.num_blocks());
  for (index_t i = 0; i < red.num_blocks(); ++i)
    expect_close(red_mixed.b(i), red.b(i), kFloatTol, "reduced block");
}

TEST(WrapMixed, EveryPatternMatchesFp64WithinFloatTolerance) {
  // wrap<float> from the demoted reduced inverse against wrap<double> from
  // the same fp64 one: the walks, stores and boundary cases of all five
  // patterns are the one templated wrap_seed at both scalars.
  const index_t n = 6, l = 12, c = 3, q = 2;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC3);
  const pcyclic::Selection sel(l, c, q);
  const Matrix gtilde = bsofi::invert(selinv::cluster(m, c, q));
  const MatrixF gtilde_f = dense::demoted(gtilde.view());
  const pcyclic::BlockOps ops(m);
  const pcyclic::BlockOpsF ops_f(m);

  for (const auto pattern : kAllPatterns) {
    SCOPED_TRACE(pcyclic::pattern_name(pattern));
    const auto ref = selinv::wrap(ops, gtilde, pattern, sel);
    const auto got = selinv::wrap(ops_f, gtilde_f, pattern, sel);
    ASSERT_EQ(got.size(), ref.size());
    for (const auto& [k, col] : ref.keys())
      expect_close(got.at(k, col), ref.at(k, col), kFloatTol, "wrap block");
  }
}

TEST(MixedGateHelpers, Cond1AndResidualProbeAreSane) {
  const index_t n = 4, l = 8, c = 2, q = 0;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC2);
  const pcyclic::Selection sel(l, c, q);

  pcyclic::PCyclicMatrix reduced = selinv::cluster(m, c, q);
  Matrix gtilde = bsofi::invert(reduced);
  const double cond1 = selinv::reduced_cond1(reduced, gtilde);
  EXPECT_GT(cond1, 1.0);  // it is an upper bound on kappa_1 >= 1

  const pcyclic::BlockOps ops(m);
  auto cols = selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel);
  const double r =
      selinv::probe_residual(m, cols, pcyclic::Pattern::Columns, sel);
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, 1e-10);  // fp64 wrap: residual at round-off level

  // Patterns that store no adjacent blocks cannot be probed.
  auto diag = selinv::wrap(ops, gtilde, pcyclic::Pattern::Diagonal, sel);
  EXPECT_LT(selinv::probe_residual(m, diag, pcyclic::Pattern::Diagonal, sel),
            0.0);
}

// ---- end-to-end: single-call driver --------------------------------------

TEST(FsiMixed, SelectedBlocksWithinToleranceOfFp64) {
  const index_t n = 6, l = 12, c = 3;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xE1);

  for (auto pattern : kAllPatterns) {
    selinv::FsiOptions opts;
    opts.c = c;
    opts.q = 1;
    opts.pattern = pattern;

    opts.precision = Precision::Fp64;
    util::Rng rng64(5);
    auto ref = selinv::fsi(m, opts, rng64);

    opts.precision = Precision::Mixed;
    util::Rng rng32(5);
    selinv::FsiStats stats;
    auto got = selinv::fsi(m, opts, rng32, &stats);

    SCOPED_TRACE(pcyclic::pattern_name(pattern));
    ASSERT_EQ(got.size(), ref.size());
    const double tol =
        stats.precision_used == Precision::Mixed ? 5e-3 : 1e-15;
    for (const auto& [k, col] : ref.keys())
      expect_close(got.at(k, col), ref.at(k, col), tol, "mixed block");
  }
}

TEST(FsiMixed, ForcedFallbackReturnsFp64ResultAndCounts) {
  GateGuard guard;
  const index_t n = 5, l = 8, c = 2;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xE2);

  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = 0;
  opts.pattern = pcyclic::Pattern::Columns;

  opts.precision = Precision::Fp64;
  util::Rng rng64(9);
  auto ref = selinv::fsi(m, opts, rng64);

  // A zero gate rejects every mixed run (cond1 >= 1 > 0 always trips).
  selinv::set_mixed_gate({0.0, 0.0});
  const auto fallbacks_before =
      obs::metrics::total(obs::metrics::Counter::MixedFallbacks);
  const auto runs_before =
      obs::metrics::total(obs::metrics::Counter::MixedRuns);

  opts.precision = Precision::Mixed;
  util::Rng rng32(9);
  selinv::FsiStats stats;
  auto got = selinv::fsi(m, opts, rng32, &stats);

  EXPECT_TRUE(stats.mixed_fallback);
  EXPECT_EQ(stats.precision_used, Precision::Fp64);
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::MixedRuns),
            runs_before + 1);
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::MixedFallbacks),
            fallbacks_before + 1);

  // The fallback re-runs the very same fp64 path a Precision::Fp64 call
  // takes (same pinned q), so the result is bit-identical.
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [k, col] : ref.keys())
    expect_close(got.at(k, col), ref.at(k, col), 0.0, "fallback block");
}

TEST(FsiMixed, ResidualTripLeavesTheHealthVerdictToTheFallback) {
  // A gate that passes cond1 but rejects the fp32 residual: the caller gets
  // the fp64 fallback's answer, so the rejected residual must not reach the
  // health monitor, where (with resid_fail at the gate's level, as by
  // default) it would turn sel_residual FAIL.
  GateGuard guard;
  const index_t n = 6, l = 12, c = 4;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xE3);
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = 1;
  opts.pattern = pcyclic::Pattern::Columns;
  opts.precision = Precision::Mixed;

  // cond1 alone passes the default gate: a cond1-only gate keeps fp32.
  selinv::set_mixed_gate(
      {kAcceptAll.resid_max, selinv::MixedGate{}.cond_max});
  util::Rng rng(3);
  selinv::FsiStats accepted;
  const auto fp32 = selinv::fsi(m, opts, rng, &accepted);
  ASSERT_EQ(accepted.precision_used, Precision::Mixed);
  const std::vector<double> resid = residuals_everywhere(m, fp32);
  constexpr double kResidMax = 1e-9;
  ASSERT_GT(*std::min_element(resid.begin(), resid.end()), kResidMax);

  const obs::health::Thresholds saved = obs::health::thresholds();
  obs::health::Thresholds lowered = saved;
  lowered.resid_warn = kResidMax / 10.0;
  lowered.resid_fail = kResidMax;
  obs::health::set_thresholds(lowered);
  obs::health::reset();
  selinv::set_mixed_gate({kResidMax, selinv::MixedGate{}.cond_max});
  selinv::FsiStats stats;
  (void)selinv::fsi(m, opts, rng, &stats);
  const obs::health::HealthReport report = obs::health::report();
  obs::health::set_thresholds(saved);

  EXPECT_TRUE(stats.mixed_fallback);
  EXPECT_EQ(stats.precision_used, Precision::Fp64);
  for (const obs::health::CheckRow& row : report.rows) {
    if (row.name != "sel_residual") continue;
    EXPECT_EQ(row.status, obs::health::Status::Ok)
        << "worst residual " << row.worst;
    EXPECT_LT(row.worst, lowered.resid_warn);
  }
  EXPECT_NE(report.overall, obs::health::Status::Fail);
}

TEST(FsiMixed, RepeatedIdenticalCallsGiveOneVerdict) {
  // The gate probes positions fixed by the call's inputs.  With resid_max
  // at the median of the fp32 result's residuals over every position —
  // where a probe that wandered across calls would flip the verdict —
  // identical calls must still keep fp32, or fall back, every time.
  GateGuard guard;
  qmc::HubbardParams p;
  p.u = 4.0;
  p.beta = 4.0;
  p.l = 12;
  const qmc::HubbardModel model(qmc::Lattice::chain(6), p);
  util::Rng field_rng(0xB1);
  const pcyclic::PCyclicMatrix m =
      model.build_m(qmc::HsField(p.l, 6, field_rng), qmc::Spin::Up);

  selinv::FsiOptions opts;
  opts.c = 4;
  opts.q = 1;
  opts.pattern = pcyclic::Pattern::Columns;
  opts.precision = Precision::Mixed;

  selinv::set_mixed_gate(kAcceptAll);
  util::Rng rng(1);
  const auto fp32 = selinv::fsi(m, opts, rng);
  const std::vector<double> resid = residuals_everywhere(m, fp32);
  const double threshold = quantile(resid, 0.5);
  ASSERT_LT(*std::min_element(resid.begin(), resid.end()), threshold);
  ASSERT_GT(*std::max_element(resid.begin(), resid.end()), threshold);

  selinv::set_mixed_gate({threshold, selinv::MixedGate{}.cond_max});
  std::vector<Precision> verdicts;
  for (int call = 0; call < 12; ++call) {
    selinv::FsiStats stats;
    (void)selinv::fsi(m, opts, rng, &stats);
    verdicts.push_back(stats.precision_used);
  }
  for (int call = 1; call < 12; ++call)
    EXPECT_EQ(verdicts[call], verdicts[0]) << "call " << call;
}

// ---- end-to-end: batched graph engine ------------------------------------

std::vector<qmc::FsiBatchTask> make_tasks(const qmc::HubbardModel& model,
                                          int count) {
  std::vector<qmc::FsiBatchTask> tasks;
  for (int i = 0; i < count; ++i) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    tasks.push_back(qmc::FsiBatchTask{
        qmc::HsField(model.params().l, model.num_sites(), rng),
        /*q=*/i % 2, /*heavy=*/true});
  }
  return tasks;
}

TEST(FsiMixedBatch, MeasurementsWithinToleranceOfFp64) {
  qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  const qmc::HubbardModel model(qmc::Lattice::chain(6), p);
  const auto tasks = make_tasks(model, 2);

  qmc::FsiBatchOptions opts;
  opts.cluster_size = 2;

  opts.precision = Precision::Fp64;
  const auto ref = qmc::run_fsi_batch(model, tasks, opts);

  opts.precision = Precision::Mixed;
  qmc::SchedSummary sched;
  const auto got = qmc::run_fsi_batch(model, tasks, opts, &sched);

  EXPECT_EQ(sched.mixed_tasks, static_cast<std::uint32_t>(tasks.size()));
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    const auto r = ref[t].serialize();
    const auto g = got[t].serialize();
    ASSERT_EQ(g.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_NEAR(g[i], r[i], 1e-3 * (1.0 + std::abs(r[i])))
          << "task " << t << " measurement " << i;
  }
}

TEST(FsiMixedBatch, ForcedFallbackRecomputesEveryTaskInFp64) {
  GateGuard guard;
  qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  const qmc::HubbardModel model(qmc::Lattice::chain(5), p);
  const auto tasks = make_tasks(model, 2);

  qmc::FsiBatchOptions opts;
  opts.cluster_size = 2;

  opts.precision = Precision::Fp64;
  const auto ref = qmc::run_fsi_batch(model, tasks, opts);

  selinv::set_mixed_gate({0.0, 0.0});
  opts.precision = Precision::Mixed;
  qmc::SchedSummary sched;
  const auto got = qmc::run_fsi_batch(model, tasks, opts, &sched);

  EXPECT_EQ(sched.mixed_tasks, static_cast<std::uint32_t>(tasks.size()));
  EXPECT_EQ(sched.mixed_fallbacks, static_cast<std::uint32_t>(tasks.size()));

  // The gate's recompute is the fp64 pipeline on the same task inputs, so
  // the measurements must agree with a pure-fp64 batch to fp64 round-off.
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    const auto r = ref[t].serialize();
    const auto g = got[t].serialize();
    ASSERT_EQ(g.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_NEAR(g[i], r[i], 1e-12 * (1.0 + std::abs(r[i])))
          << "task " << t << " measurement " << i;
  }
}

TEST(FsiMixedBatch, BitIdenticalAcrossRepeatedRunsAndWorkerCounts) {
  // A mixed batch whose gate threshold sits inside the spread of its probed
  // residuals: the per-task verdicts, and so the measurements, must not
  // depend on run order or worker count.
  GateGuard guard;
  qmc::HubbardParams p;
  p.u = 4.0;
  p.beta = 4.0;
  p.l = 12;
  const qmc::HubbardModel model(qmc::Lattice::chain(6), p);
  const index_t c = 4;
  std::vector<qmc::FsiBatchTask> tasks;
  for (int i = 0; i < 4; ++i) {
    util::Rng rng(200 + static_cast<std::uint64_t>(i));
    tasks.push_back(qmc::FsiBatchTask{qmc::HsField(p.l, 6, rng), i % c, true});
  }

  // Residuals of every task's accepted fp32 Rows/Columns, every position.
  selinv::set_mixed_gate(kAcceptAll);
  std::vector<double> resid;
  for (const auto& task : tasks) {
    for (const auto spin : {qmc::Spin::Up, qmc::Spin::Down}) {
      const pcyclic::PCyclicMatrix m = model.build_m(task.field, spin);
      const pcyclic::BlockOps ops(m);
      selinv::FsiOptions opts;
      opts.c = c;
      opts.q = task.q;
      opts.precision = Precision::Mixed;
      util::Rng rng(1);
      for (const auto& s :
           selinv::fsi_multi(m, ops, {pcyclic::Pattern::Rows,
                                      pcyclic::Pattern::Columns},
                             opts, rng)) {
        const auto r = residuals_everywhere(m, s);
        resid.insert(resid.end(), r.begin(), r.end());
      }
    }
  }
  selinv::set_mixed_gate({quantile(resid, 0.9), selinv::MixedGate{}.cond_max});

  qmc::FsiBatchOptions opts;
  opts.cluster_size = c;
  opts.precision = Precision::Mixed;
  opts.num_workers = 1;
  const auto first = qmc::run_fsi_batch(model, tasks, opts);
  for (const int workers : {1, 2, 4}) {
    opts.num_workers = workers;
    for (int run = 0; run < 3; ++run) {
      const auto got = qmc::run_fsi_batch(model, tasks, opts);
      ASSERT_EQ(got.size(), first.size());
      for (std::size_t t = 0; t < first.size(); ++t)
        EXPECT_EQ(got[t].serialize(), first[t].serialize())
            << "workers=" << workers << " run=" << run << " task=" << t;
    }
  }
}

// ---- run_fsi_batch's per-task contract -----------------------------------

/// What run_fsi_batch documents for one task: fsi_multi on the task's two
/// matrices, then the measurement accumulators.  A mixed task is gated as
/// a whole, so when either spin falls back both spins are fp64.
qmc::Measurements fsi_multi_reference(const qmc::HubbardModel& model,
                                      const qmc::FsiBatchTask& task,
                                      index_t c, Precision precision) {
  std::vector<pcyclic::Pattern> patterns{pcyclic::Pattern::AllDiagonals};
  if (task.heavy) {
    patterns.push_back(pcyclic::Pattern::Rows);
    patterns.push_back(pcyclic::Pattern::Columns);
  }
  const pcyclic::PCyclicMatrix m_up = model.build_m(task.field, qmc::Spin::Up);
  const pcyclic::PCyclicMatrix m_dn =
      model.build_m(task.field, qmc::Spin::Down);
  const pcyclic::BlockOps ops_up(m_up), ops_dn(m_dn);
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = task.q;
  opts.precision = precision;
  util::Rng rng(1);
  selinv::FsiStats stats_up, stats_dn;
  auto up = selinv::fsi_multi(m_up, ops_up, patterns, opts, rng, &stats_up);
  auto dn = selinv::fsi_multi(m_dn, ops_dn, patterns, opts, rng, &stats_dn);
  if (stats_up.mixed_fallback || stats_dn.mixed_fallback) {
    opts.precision = Precision::Fp64;
    up = selinv::fsi_multi(m_up, ops_up, patterns, opts, rng);
    dn = selinv::fsi_multi(m_dn, ops_dn, patterns, opts, rng);
  }
  qmc::Measurements meas(model.params().l,
                         model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  qmc::accumulate_equal_time(model.lattice(), up[0], dn[0], model.params().t,
                             1.0, false, meas);
  if (task.heavy)
    qmc::accumulate_spxx(model.lattice(), up[1], up[2], dn[1], dn[2], 1.0,
                         false, meas);
  return meas;
}

TEST(FsiBatch, EachTaskEqualsFsiMultiPlusAccumulators) {
  qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  const qmc::HubbardModel model(qmc::Lattice::chain(4), p);
  const index_t c = 2;
  auto tasks = make_tasks(model, 3);
  tasks[1].heavy = false;  // one equal-time-only task

  for (const auto precision : {Precision::Fp64, Precision::Mixed}) {
    std::vector<std::vector<double>> expect;
    for (const auto& task : tasks)
      expect.push_back(
          fsi_multi_reference(model, task, c, precision).serialize());
    for (const int workers : {1, 4}) {
      qmc::FsiBatchOptions opts;
      opts.cluster_size = c;
      opts.num_workers = workers;
      opts.precision = precision;
      const auto got = qmc::run_fsi_batch(model, tasks, opts);
      ASSERT_EQ(got.size(), tasks.size());
      for (std::size_t t = 0; t < tasks.size(); ++t)
        EXPECT_EQ(got[t].serialize(), expect[t])
            << precision_name(precision) << " workers=" << workers
            << " task=" << t;
    }
  }
}

// ---- precision plumbing helpers ------------------------------------------

TEST(PrecisionHelpers, ParseNamesAndWireCodes) {
  Precision p = Precision::Fp64;
  EXPECT_TRUE(parse_precision("mixed", p));
  EXPECT_EQ(p, Precision::Mixed);
  EXPECT_TRUE(parse_precision("fp32", p));
  EXPECT_EQ(p, Precision::Mixed);
  EXPECT_TRUE(parse_precision("fp64", p));
  EXPECT_EQ(p, Precision::Fp64);
  EXPECT_TRUE(parse_precision("double", p));
  EXPECT_EQ(p, Precision::Fp64);
  EXPECT_FALSE(parse_precision("fp16", p));

  EXPECT_STREQ(precision_name(Precision::Fp64), "fp64");
  EXPECT_STREQ(precision_name(Precision::Mixed), "mixed");

  Precision q = Precision::Fp64;
  EXPECT_TRUE(precision_from_u32(1, q));
  EXPECT_EQ(q, Precision::Mixed);
  EXPECT_TRUE(precision_from_u32(0, q));
  EXPECT_EQ(q, Precision::Fp64);
  EXPECT_FALSE(precision_from_u32(7, q));
}

TEST(PrecisionHelpers, EnvValueFailsLoudOnGarbage) {
  // Unset / empty keep the fp64 default...
  EXPECT_EQ(precision_from_env_value(nullptr), Precision::Fp64);
  EXPECT_EQ(precision_from_env_value(""), Precision::Fp64);
  EXPECT_EQ(precision_from_env_value("MIXED"), Precision::Mixed);
  EXPECT_EQ(precision_from_env_value("double"), Precision::Fp64);
  // ...but a typo must throw, not silently run the whole job in fp64.
  EXPECT_THROW(precision_from_env_value("fp16"), util::CheckError);
  try {
    precision_from_env_value("fast");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fast"), std::string::npos);
    EXPECT_NE(what.find("mixed"), std::string::npos);
  }
}

}  // namespace
