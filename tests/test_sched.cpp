// Tests of the fsi::sched work-stealing batch scheduler and of the
// determinism guarantees of the scheduler-driven run_parallel_fsi.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "fsi/qmc/multi_gf.hpp"
#include "fsi/sched/scheduler.hpp"
#include "fsi/sched/task_queue.hpp"

namespace {

using namespace fsi;

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
// BatchScheduler

void run_all_workers(sched::BatchScheduler& s,
                     const std::function<void(int, std::uint32_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(s.workers()));
  for (int w = 0; w < s.workers(); ++w)
    threads.emplace_back(
        [&s, &body, w] { s.run_worker(w, [&](std::uint32_t t) { body(w, t); }); });
  for (auto& t : threads) t.join();
}

TEST(BatchScheduler, EveryTaskRunsExactlyOnce) {
  constexpr std::uint32_t kTasks = 64;
  sched::SchedulerOptions opts;
  opts.backoff_us = 0;
  sched::BatchScheduler s(4, kTasks, opts);
  std::vector<std::atomic<int>> ran(kTasks);
  run_all_workers(s, [&](int, std::uint32_t t) {
    ran[t].fetch_add(1, std::memory_order_relaxed);
  });
  std::uint64_t executed = 0;
  for (int w = 0; w < s.workers(); ++w) executed += s.stats(w).executed;
  EXPECT_EQ(executed, kTasks);
  for (std::uint32_t t = 0; t < kTasks; ++t) EXPECT_EQ(ran[t].load(), 1);
}

TEST(BatchScheduler, SkewedBatchTriggersStealing) {
  // All the slow tasks sit in worker 0's preload; the other workers finish
  // their shares instantly and must steal to keep the batch moving.
  constexpr std::uint32_t kTasks = 16;
  sched::SchedulerOptions opts;
  opts.backoff_us = 10;
  sched::BatchScheduler s(4, kTasks, opts);
  run_all_workers(s, [&](int, std::uint32_t t) {
    if (t < kTasks / 4)  // worker 0's contiguous preload
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  EXPECT_GT(s.total_steal_batches(), 0u);
  EXPECT_GT(s.total_stolen_tasks(), 0u);
}

TEST(BatchScheduler, StaticModeNeverSteals) {
  constexpr std::uint32_t kTasks = 16;
  sched::SchedulerOptions opts;
  opts.work_stealing = false;
  opts.backoff_us = 10;
  sched::BatchScheduler s(4, kTasks, opts);
  std::vector<std::atomic<int>> owner(kTasks);
  run_all_workers(s, [&](int w, std::uint32_t t) {
    owner[t].store(w, std::memory_order_relaxed);
    if (t < kTasks / 4) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(s.total_steal_batches(), 0u);
  EXPECT_EQ(s.total_stolen_tasks(), 0u);
  // Exactly the static contiguous split: task t belongs to worker t*W/T.
  for (std::uint32_t t = 0; t < kTasks; ++t)
    EXPECT_EQ(owner[t].load(), static_cast<int>(t / (kTasks / 4)));
  for (int w = 0; w < 4; ++w) EXPECT_EQ(s.stats(w).executed, kTasks / 4);
}

TEST(BatchScheduler, UnevenTaskCountCoversAllTasks) {
  sched::SchedulerOptions opts;
  opts.backoff_us = 0;
  sched::BatchScheduler s(3, 7, opts);  // 7 tasks, 3 workers
  std::vector<std::atomic<int>> ran(7);
  run_all_workers(s, [&](int, std::uint32_t t) {
    ran[t].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint32_t t = 0; t < 7; ++t) EXPECT_EQ(ran[t].load(), 1);
}

TEST(BatchScheduler, MoreWorkersThanTasks) {
  sched::SchedulerOptions opts;
  opts.backoff_us = 0;
  sched::BatchScheduler s(6, 2, opts);
  std::atomic<int> ran{0};
  run_all_workers(s, [&](int, std::uint32_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 2);
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

TEST(MultiGfSched, FineGranularityBitIdenticalToCoarseAcrossRanks) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);

  // Coarse single-rank run is the reference: plain Alg. 3 with no graph
  // executor involved at any level.
  auto ref_opt = batch_options(1, 1, qmc::Schedule::WorkStealing);
  ref_opt.granularity = qmc::Granularity::Coarse;
  const auto baseline = run_parallel_fsi(model, ref_opt);
  const std::vector<double> expect = baseline.global.serialize();
  ASSERT_FALSE(expect.empty());

  const struct {
    int ranks;
    qmc::Schedule schedule;
    qmc::Granularity granularity;
  } configs[] = {
      {1, qmc::Schedule::WorkStealing, qmc::Granularity::Fine},
      {2, qmc::Schedule::WorkStealing, qmc::Granularity::Fine},
      {4, qmc::Schedule::WorkStealing, qmc::Granularity::Fine},
      {2, qmc::Schedule::Static, qmc::Granularity::Fine},
      {4, qmc::Schedule::Static, qmc::Granularity::Fine},
      {2, qmc::Schedule::WorkStealing, qmc::Granularity::Coarse},
  };
  for (const auto& cfg : configs) {
    auto opt = batch_options(cfg.ranks, 1, cfg.schedule);
    opt.granularity = cfg.granularity;
    const auto r = run_parallel_fsi(model, opt);
    const std::vector<double> got = r.global.serialize();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
      EXPECT_EQ(got[i], expect[i])
          << "ranks=" << cfg.ranks << " fine="
          << (cfg.granularity == qmc::Granularity::Fine) << " steal="
          << (cfg.schedule == qmc::Schedule::WorkStealing) << " i=" << i;
  }
}

TEST(MultiGfSched, FineGranularityReportsGraphTelemetry) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  auto opt = batch_options(2, 1, qmc::Schedule::WorkStealing);
  opt.granularity = qmc::Granularity::Fine;

  const auto r = run_parallel_fsi(model, opt);
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

  // Coarse mode keeps the graph fields at zero but still exports the
  // per-rank busy vector.
  opt.granularity = qmc::Granularity::Coarse;
  const auto coarse = run_parallel_fsi(model, opt);
  EXPECT_EQ(coarse.sched.graph_nodes, 0u);
  EXPECT_DOUBLE_EQ(coarse.sched.critical_path_seconds, 0.0);
  EXPECT_EQ(coarse.sched.busy_seconds.size(), 2u);
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
