// Tests of the fsi::sched task deque and of the determinism guarantees of
// run_parallel_fsi on the graph executor.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fsi/qmc/measurements.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/sched/task_queue.hpp"
#include "fsi/selinv/fsi.hpp"

namespace {

using namespace fsi;
using dense::index_t;

// ---------------------------------------------------------------------------
// TaskDeque

TEST(TaskDeque, OwnerPopsInFifoOrder) {
  sched::TaskDeque q;
  for (std::uint32_t t = 0; t < 5; ++t) q.push(t);
  EXPECT_EQ(q.size(), 5u);
  std::uint32_t task = 0;
  for (std::uint32_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(q.pop(task));
    EXPECT_EQ(task, t);
  }
  EXPECT_FALSE(q.pop(task));
}

TEST(TaskDeque, StealHalfTakesBackHalfInOrder) {
  sched::TaskDeque q;
  for (std::uint32_t t = 0; t < 6; ++t) q.push(t);
  std::vector<std::uint32_t> loot;
  EXPECT_EQ(q.steal_half(loot), 3u);
  EXPECT_EQ(loot, (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(q.size(), 3u);
  // Odd size: the thief rounds up.
  loot.clear();
  EXPECT_EQ(q.steal_half(loot), 2u);
  EXPECT_EQ(loot, (std::vector<std::uint32_t>{1, 2}));
  // Empty deque yields nothing.
  loot.clear();
  std::uint32_t task = 0;
  ASSERT_TRUE(q.pop(task));
  EXPECT_EQ(q.steal_half(loot), 0u);
  EXPECT_TRUE(loot.empty());
}

// ---------------------------------------------------------------------------
// run_parallel_fsi: determinism

qmc::MultiGfOptions batch_options(int ranks, int threads,
                                  qmc::Schedule schedule) {
  qmc::MultiGfOptions opt;
  opt.num_matrices = 5;  // deliberately indivisible by every rank count used
  opt.num_ranks = ranks;
  opt.omp_threads_per_rank = threads;
  opt.cluster_size = 2;
  opt.seed = 321;
  opt.schedule = schedule;
  return opt;
}

TEST(MultiGfSched, BitIdenticalAcrossRanksThreadsAndSchedules) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);

  const auto baseline =
      run_parallel_fsi(model, batch_options(1, 1, qmc::Schedule::WorkStealing));
  const std::vector<double> expect = baseline.global.serialize();
  ASSERT_FALSE(expect.empty());

  const struct {
    int ranks, threads;
    qmc::Schedule schedule;
  } configs[] = {
      {3, 1, qmc::Schedule::WorkStealing},
      {2, 2, qmc::Schedule::WorkStealing},
      {5, 1, qmc::Schedule::WorkStealing},
      {2, 1, qmc::Schedule::Static},
      {1, 2, qmc::Schedule::Static},
  };
  for (const auto& cfg : configs) {
    const auto r = run_parallel_fsi(
        model, batch_options(cfg.ranks, cfg.threads, cfg.schedule));
    const std::vector<double> got = r.global.serialize();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
      EXPECT_EQ(got[i], expect[i]) << "ranks=" << cfg.ranks
                                   << " threads=" << cfg.threads << " i=" << i;
  }
}

/// Alg. 3 one matrix at a time on the calling thread, from the public API
/// alone: the fields and offsets run_parallel_fsi derives from its seed
/// (fields from one root stream, q from (seed, task index + 1)), fsi_multi
/// per spin in loop shape on the model's closed-form B^-1 — no graph
/// executor at any level — then the measurement accumulators, merged in
/// ascending task order.
qmc::Measurements serial_reference(const qmc::HubbardModel& model,
                                   const qmc::MultiGfOptions& opt) {
  const index_t l = model.params().l;
  const index_t c = opt.cluster_size;
  const auto heavy_cutoff = static_cast<index_t>(
      std::ceil(opt.heavy_fraction * static_cast<double>(opt.num_matrices)));
  util::Rng root_rng(opt.seed);
  qmc::Measurements global(l, model.lattice().num_distance_classes());
  for (index_t t = 0; t < opt.num_matrices; ++t) {
    const qmc::HsField field(l, model.num_sites(), root_rng);
    util::Rng task_rng(opt.seed, static_cast<std::uint64_t>(t) + 1);
    selinv::FsiOptions fsi_opts;
    fsi_opts.c = c;
    fsi_opts.q =
        static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
    fsi_opts.exec = selinv::FsiOptions::Exec::OmpLoops;
    fsi_opts.precision = Precision::Fp64;
    const bool heavy = t < heavy_cutoff;
    std::vector<pcyclic::Pattern> patterns{pcyclic::Pattern::AllDiagonals};
    if (heavy) {
      patterns.push_back(pcyclic::Pattern::Rows);
      patterns.push_back(pcyclic::Pattern::Columns);
    }
    auto compute = [&](qmc::Spin spin) {
      const pcyclic::PCyclicMatrix m = model.build_m(field, spin);
      const pcyclic::BlockOps ops(m, model.b_inverses(field, spin));
      return selinv::fsi_multi(m, ops, patterns, fsi_opts, task_rng);
    };
    const auto up = compute(qmc::Spin::Up);
    const auto dn = compute(qmc::Spin::Down);
    qmc::Measurements meas(l, model.lattice().num_distance_classes());
    meas.add_sample(1.0);
    qmc::accumulate_equal_time(model.lattice(), up[0], dn[0], model.params().t,
                               1.0, false, meas);
    if (heavy)
      qmc::accumulate_spxx(model.lattice(), up[1], up[2], dn[1], dn[2], 1.0,
                           false, meas);
    global.merge(meas);
  }
  return global;
}

TEST(MultiGfSched, FineGranularityBitIdenticalToCoarseAcrossRanks) {
  // The graph's stage nodes against the per-matrix serial computation.
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);

  const struct {
    int workers;
    qmc::Schedule schedule;
    double heavy_fraction;
  } configs[] = {
      {1, qmc::Schedule::WorkStealing, 1.0},
      {2, qmc::Schedule::WorkStealing, 1.0},
      {4, qmc::Schedule::WorkStealing, 1.0},
      {1, qmc::Schedule::Static, 1.0},
      {2, qmc::Schedule::Static, 1.0},
      {4, qmc::Schedule::Static, 1.0},
      {4, qmc::Schedule::WorkStealing, 0.4},
  };
  for (const auto& cfg : configs) {
    auto opt = batch_options(cfg.workers, 1, cfg.schedule);
    opt.heavy_fraction = cfg.heavy_fraction;
    const std::vector<double> expect = serial_reference(model, opt).serialize();
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(run_parallel_fsi(model, opt).global.serialize(), expect)
        << "workers=" << cfg.workers
        << " steal=" << (cfg.schedule == qmc::Schedule::WorkStealing)
        << " heavy_fraction=" << cfg.heavy_fraction;
  }
}

TEST(MultiGfSched, FineGranularityReportsGraphTelemetry) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  const auto r =
      run_parallel_fsi(model, batch_options(2, 1, qmc::Schedule::WorkStealing));
  EXPECT_DOUBLE_EQ(r.global.samples(), 5.0);
  EXPECT_EQ(r.sched.tasks, 5u);
  EXPECT_EQ(r.sched.workers, 2);
  // Per task and spin: 1 build + b cluster products + 1 BSOFI + seed walks,
  // plus 1 measure node per task — far more nodes than tasks.
  EXPECT_GT(r.sched.graph_nodes, 5u * 4u);
  EXPECT_GT(r.sched.critical_path_seconds, 0.0);
  EXPECT_GT(r.sched.stage_build_seconds, 0.0);
  EXPECT_GT(r.sched.stage_cls_seconds, 0.0);
  EXPECT_GT(r.sched.stage_bsofi_seconds, 0.0);
  EXPECT_GT(r.sched.stage_wrap_seconds, 0.0);
  EXPECT_GT(r.sched.stage_measure_seconds, 0.0);
  EXPECT_EQ(r.sched.busy_seconds.size(), 2u);
  EXPECT_GT(r.sched.busy_max_seconds, 0.0);
}

TEST(MultiGfSched, SkewedBatchReportsBalanceTelemetry) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  auto opt = batch_options(2, 1, qmc::Schedule::WorkStealing);
  opt.num_matrices = 8;
  opt.heavy_fraction = 0.25;  // heavy front chunk lands on rank 0's preload

  const auto r = run_parallel_fsi(model, opt);
  EXPECT_DOUBLE_EQ(r.global.samples(), 8.0);
  EXPECT_EQ(r.sched.tasks, 8u);
  EXPECT_GE(r.sched.balance(), 1.0);
  EXPECT_GT(r.sched.busy_max_seconds, 0.0);
}

}  // namespace
