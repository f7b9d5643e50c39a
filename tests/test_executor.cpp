// Tests of the dependency-aware task-graph executor: TaskGraph validation,
// GraphRunner ordering / stealing / cancellation semantics, and the
// persistent Executor pool (concurrent rank dispatch, pool reuse, nested
// dispatch).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "fsi/sched/executor.hpp"
#include "fsi/sched/task_graph.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;

sched::ExecOptions quiet_options(bool stealing = true) {
  sched::ExecOptions o;
  o.work_stealing = stealing;
  o.backoff_us = 0;  // idle workers yield instead of sleeping
  return o;
}

// ---------------------------------------------------------------------------
// TaskGraph

TEST(TaskGraph, ValidateAcceptsDag) {
  sched::TaskGraph g;
  const auto a = g.add_node([](int) {});
  const auto b = g.add_node([](int) {});
  const auto c = g.add_node([](int) {});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, c);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, ValidateDetectsCycle) {
  sched::TaskGraph g;
  const auto a = g.add_node([](int) {});
  const auto b = g.add_node([](int) {});
  const auto c = g.add_node([](int) {});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_THROW(g.validate(), util::CheckError);
}

TEST(TaskGraph, RejectsSelfEdgeAndBadIds) {
  sched::TaskGraph g;
  const auto a = g.add_node([](int) {});
  EXPECT_THROW(g.add_edge(a, a), util::CheckError);
  EXPECT_THROW(g.add_edge(a, 7), util::CheckError);
  EXPECT_THROW(g.add_node(nullptr), util::CheckError);
}

TEST(TaskGraph, ExecutorRejectsCyclicGraphInsteadOfDeadlocking) {
  sched::TaskGraph g;
  const auto a = g.add_node([](int) {});
  const auto b = g.add_node([](int) {});
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(
      sched::Executor::instance().run_graph(g, 2, quiet_options()),
      util::CheckError);
}

// ---------------------------------------------------------------------------
// GraphRunner

TEST(GraphRunner, EmptyGraphCompletesImmediately) {
  sched::TaskGraph g;
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 4, quiet_options());
  EXPECT_EQ(gs.nodes, 0u);
}

TEST(GraphRunner, EveryNodeRunsExactlyOnce) {
  constexpr int kNodes = 64;
  sched::TaskGraph g;
  std::vector<std::atomic<int>> runs(kNodes);
  for (auto& r : runs) r.store(0);
  for (int i = 0; i < kNodes; ++i)
    g.add_node([&runs, i](int) { runs[static_cast<std::size_t>(i)]++; },
               sched::Stage::Other, i % 3);
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 3, quiet_options());
  EXPECT_EQ(gs.nodes, static_cast<std::uint64_t>(kNodes));
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(GraphRunner, DependenciesOrderExecution) {
  // Diamond per lane: root -> {mid1, mid2} -> sink.  Every body asserts its
  // predecessors already retired.
  constexpr int kLanes = 8;
  sched::TaskGraph g;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(kLanes) * 4);
  for (auto& d : done) d.store(0);
  std::atomic<bool> ordered{true};
  for (int lane = 0; lane < kLanes; ++lane) {
    const std::size_t base = static_cast<std::size_t>(lane) * 4;
    const auto root = g.add_node([&done, base](int) { done[base] = 1; },
                                 sched::Stage::Build, lane);
    const auto mid1 = g.add_node(
        [&done, &ordered, base](int) {
          if (done[base].load() != 1) ordered = false;
          done[base + 1] = 1;
        },
        sched::Stage::Cls, lane);
    const auto mid2 = g.add_node(
        [&done, &ordered, base](int) {
          if (done[base].load() != 1) ordered = false;
          done[base + 2] = 1;
        },
        sched::Stage::Cls, lane);
    const auto sink = g.add_node(
        [&done, &ordered, base](int) {
          if (done[base + 1].load() != 1 || done[base + 2].load() != 1)
            ordered = false;
          done[base + 3] = 1;
        },
        sched::Stage::Wrap, lane);
    g.add_edge(root, mid1);
    g.add_edge(root, mid2);
    g.add_edge(mid1, sink);
    g.add_edge(mid2, sink);
  }
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 4, quiet_options());
  EXPECT_TRUE(ordered.load());
  EXPECT_EQ(gs.nodes, static_cast<std::uint64_t>(kLanes) * 4);
  EXPECT_EQ(gs.of(sched::Stage::Build).nodes, static_cast<std::uint64_t>(kLanes));
  EXPECT_EQ(gs.of(sched::Stage::Cls).nodes,
            static_cast<std::uint64_t>(kLanes) * 2);
  EXPECT_EQ(gs.of(sched::Stage::Wrap).nodes, static_cast<std::uint64_t>(kLanes));
  for (const auto& d : done) EXPECT_EQ(d.load(), 1);
}

TEST(GraphRunner, MoreWorkersThanNodes) {
  sched::TaskGraph g;
  std::atomic<int> runs{0};
  g.add_node([&runs](int) { runs++; });
  g.add_node([&runs](int) { runs++; });
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 8, quiet_options());
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(gs.nodes, 2u);
}

TEST(GraphRunner, ThrowingBodyCancelsRunWithoutDeadlock) {
  sched::TaskGraph g;
  std::atomic<int> downstream_ran{0};
  const auto bad = g.add_node(
      [](int) { throw std::runtime_error("node failure"); });
  for (int i = 0; i < 8; ++i) {
    const auto succ =
        g.add_node([&downstream_ran](int) { downstream_ran++; });
    g.add_edge(bad, succ);
  }
  EXPECT_THROW(sched::Executor::instance().run_graph(g, 2, quiet_options()),
               std::runtime_error);
  // Cancel-and-drain: the failing node's successors were retired, not run.
  EXPECT_EQ(downstream_ran.load(), 0);
}

TEST(GraphRunner, StealingDisabledPinsNodesToOwner) {
  constexpr int kWorkers = 2, kNodes = 12;
  sched::TaskGraph g;
  std::vector<std::atomic<int>> ran_by(kNodes);
  for (auto& r : ran_by) r.store(-1);
  for (int i = 0; i < kNodes; ++i)
    g.add_node([&ran_by, i](int worker) {
      ran_by[static_cast<std::size_t>(i)] = worker;
    }, sched::Stage::Other, i % kWorkers);
  sched::GraphRunner runner(g, kWorkers, quiet_options(/*stealing=*/false));
  std::vector<std::thread> team;
  for (int w = 0; w < kWorkers; ++w)
    team.emplace_back([&runner, w] { runner.run_worker(w); });
  for (auto& t : team) t.join();
  for (int i = 0; i < kNodes; ++i)
    EXPECT_EQ(ran_by[static_cast<std::size_t>(i)].load(), i % kWorkers)
        << "node " << i << " migrated with stealing disabled";
  EXPECT_EQ(runner.stats().stolen_nodes, 0u);
}

TEST(GraphRunner, IdleWorkerStealsFromStraggler) {
  // All nodes preloaded on worker 0; its first node blocks until worker 1
  // has run something — which, with an empty own deque, worker 1 can only
  // have obtained by stealing.
  constexpr int kNodes = 16;
  sched::TaskGraph g;
  std::atomic<int> ran_by_1{0};
  g.add_node([&ran_by_1](int) {
    while (ran_by_1.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }, sched::Stage::Other, 0);
  for (int i = 1; i < kNodes; ++i)
    g.add_node([&ran_by_1](int worker) {
      if (worker == 1) ran_by_1++;
    }, sched::Stage::Other, 0);
  sched::GraphRunner runner(g, 2, quiet_options());
  std::thread helper([&runner] { runner.run_worker(1); });
  runner.run_worker(0);
  helper.join();
  const sched::GraphStats gs = runner.stats();
  EXPECT_GT(ran_by_1.load(), 0);
  EXPECT_GT(gs.steal_batches, 0u);
  EXPECT_GT(gs.stolen_nodes, 0u);
  EXPECT_EQ(gs.nodes, static_cast<std::uint64_t>(kNodes));
}

// ---------------------------------------------------------------------------
// Executor (persistent pool)

TEST(Executor, RunRanksExecutesBodiesConcurrently) {
  // Rank bodies rendezvous: each arrives and waits for all others, which
  // terminates only if all n bodies run at the same time (mini-MPI barrier
  // semantics — queued-not-concurrent would deadlock here).
  constexpr int kRanks = 4;
  std::atomic<int> arrived{0};
  sched::Executor::instance().run_ranks(kRanks, [&arrived](int) {
    arrived++;
    while (arrived.load() < kRanks)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(arrived.load(), kRanks);
}

TEST(Executor, PoolPersistsAcrossBatches) {
  sched::Executor& ex = sched::Executor::instance();
  std::atomic<int> runs{0};
  ex.run_ranks(3, [&runs](int) { runs++; });
  const int size_after_first = ex.pool_size();
  const std::uint64_t dispatches_before = ex.dispatch_count();
  for (int batch = 0; batch < 5; ++batch)
    ex.run_ranks(3, [&runs](int) { runs++; });
  EXPECT_EQ(runs.load(), 3 + 5 * 3);
  // Same-width batches reuse the existing workers instead of spawning.
  EXPECT_EQ(ex.pool_size(), size_after_first);
  EXPECT_EQ(ex.dispatch_count(), dispatches_before + 5);
}

TEST(Executor, RunRanksPropagatesBodyException) {
  std::atomic<int> survivors{0};
  EXPECT_THROW(
      sched::Executor::instance().run_ranks(3, [&survivors](int rank) {
        if (rank == 1) throw std::runtime_error("rank failure");
        survivors++;
      }),
      std::runtime_error);
  // The other ranks still ran to completion; the pool is not poisoned.
  EXPECT_EQ(survivors.load(), 2);
  std::atomic<int> again{0};
  sched::Executor::instance().run_ranks(2, [&again](int) { again++; });
  EXPECT_EQ(again.load(), 2);
}

TEST(Executor, NestedGraphInsideRankBatchDoesNotDeadlock) {
  // A graph dispatched from inside a rank body (exactly what multi_gf does
  // under a DQMC driver) must grow the pool instead of waiting for the busy
  // rank workers.
  constexpr int kRanks = 2, kNodesPerRank = 6;
  std::atomic<int> total{0};
  sched::Executor::instance().run_ranks(kRanks, [&total](int) {
    sched::TaskGraph g;
    for (int i = 0; i < kNodesPerRank; ++i)
      g.add_node([&total](int) { total++; });
    sched::Executor::instance().run_graph(g, 2, quiet_options());
  });
  EXPECT_EQ(total.load(), kRanks * kNodesPerRank);
}

TEST(Executor, GraphStatsReportBusyAndReadyTelemetry) {
  sched::TaskGraph g;
  for (int i = 0; i < 8; ++i)
    g.add_node([](int) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }, sched::Stage::Cls);
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 2, quiet_options());
  EXPECT_EQ(gs.nodes, 8u);
  EXPECT_GT(gs.busy_max_seconds, 0.0);
  EXPECT_GT(gs.busy_mean_seconds, 0.0);
  EXPECT_GE(gs.busy_max_seconds, gs.busy_mean_seconds);
  EXPECT_EQ(gs.busy_seconds.size(), 2u);
  EXPECT_GT(gs.critical_path_seconds, 0.0);
  // Serial chain bound: critical path cannot exceed the summed busy time.
  EXPECT_LE(gs.critical_path_seconds,
            gs.busy_mean_seconds * 2 + 1e-9);
  EXPECT_GT(gs.of(sched::Stage::Cls).busy_seconds, 0.0);
  EXPECT_EQ(gs.of(sched::Stage::Cls).nodes, 8u);
}

}  // namespace
