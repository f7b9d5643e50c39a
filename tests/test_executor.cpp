// Tests of the dependency-aware task-graph executor: TaskGraph validation,
// GraphRunner ordering / stealing / cancellation / span-timing semantics,
// and the persistent Executor pool behind run_graph (pool reuse, recovery
// after a throwing node, nested and concurrent run_graph calls).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fsi/obs/trace.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/sched/task_graph.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;

sched::ExecOptions exec_options(bool stealing = true) {
  sched::ExecOptions o;
  o.work_stealing = stealing;
  return o;
}

/// \p nodes independent nodes, each incrementing \p counter once.
sched::TaskGraph counting_graph(int nodes, std::atomic<int>& counter) {
  sched::TaskGraph g;
  for (int i = 0; i < nodes; ++i)
    g.add_node([&counter](int) { counter++; }, sched::Stage::Other, i);
  return g;
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
      sched::Executor::instance().run_graph(g, 2, exec_options()),
      util::CheckError);
}

// ---------------------------------------------------------------------------
// GraphRunner

TEST(GraphRunner, EmptyGraphCompletesImmediately) {
  sched::TaskGraph g;
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 4, exec_options());
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
      sched::Executor::instance().run_graph(g, 3, exec_options());
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
      sched::Executor::instance().run_graph(g, 4, exec_options());
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
      sched::Executor::instance().run_graph(g, 8, exec_options());
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
  EXPECT_THROW(sched::Executor::instance().run_graph(g, 2, exec_options()),
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
  sched::GraphRunner runner(g, kWorkers, exec_options(/*stealing=*/false));
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
  sched::GraphRunner runner(g, 2, exec_options());
  std::thread helper([&runner] { runner.run_worker(1); });
  runner.run_worker(0);
  helper.join();
  const sched::GraphStats gs = runner.stats();
  EXPECT_GT(ran_by_1.load(), 0);
  EXPECT_GT(gs.steal_batches, 0u);
  EXPECT_GT(gs.stolen_nodes, 0u);
  EXPECT_EQ(gs.nodes, static_cast<std::uint64_t>(kNodes));
}

TEST(GraphRunner, NodeSpanIsTheNodeBusyTime) {
  // The executor records a node's span from the clock reads that give its
  // busy time, so the span sum equals the stage's busy seconds exactly:
  // however long a worker is descheduled, both or neither see it.
  obs::clear();
  obs::set_enabled(true);
  sched::TaskGraph g;
  for (int i = 0; i < 6; ++i)
    g.add_node([](int) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }, sched::Stage::Cls, i, "test.node_span");
  g.add_node([](int) {}, sched::Stage::Wrap);  // no span requested
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 3, exec_options());
  obs::set_enabled(false);
  const double span_s = obs::total_seconds("test.node_span");
  obs::clear();
  EXPECT_GT(span_s, 6 * 100e-6);
  EXPECT_NEAR(span_s, gs.of(sched::Stage::Cls).busy_seconds, 1e-12);
}

// ---------------------------------------------------------------------------
// Executor (persistent pool)

TEST(Executor, PoolPersistsAcrossBatches) {
  constexpr int kWorkers = 4, kNodes = 16;
  sched::Executor& ex = sched::Executor::instance();
  std::atomic<int> runs{0};
  const sched::TaskGraph g = counting_graph(kNodes, runs);
  ex.run_graph(g, kWorkers, exec_options());
  const int size_after_first = ex.pool_size();
  EXPECT_GE(size_after_first, kWorkers - 1);
  for (int batch = 0; batch < 5; ++batch) {
    ex.run_graph(g, kWorkers, exec_options());
    // Same-width runs reuse the helpers the first run started: run_graph
    // returns only after every helper has released its slot.
    EXPECT_EQ(ex.pool_size(), size_after_first);
  }
  EXPECT_EQ(runs.load(), 6 * kNodes);
}

TEST(Executor, ThrowingNodeLeavesPoolReusable) {
  constexpr int kWorkers = 3, kNodes = 12;
  sched::Executor& ex = sched::Executor::instance();
  sched::TaskGraph bad;
  bad.add_node([](int) { throw std::runtime_error("node failure"); },
               sched::Stage::Other, 1);
  for (int i = 0; i < kNodes; ++i) bad.add_node([](int) {});
  EXPECT_THROW(ex.run_graph(bad, kWorkers, exec_options()),
               std::runtime_error);
  const int size_after_failure = ex.pool_size();
  // The helpers that drained the failed run are back in the pool: a clean
  // run on the same width runs every node and starts no new thread.
  std::atomic<int> runs{0};
  const sched::GraphStats gs =
      ex.run_graph(counting_graph(kNodes, runs), kWorkers, exec_options());
  EXPECT_EQ(runs.load(), kNodes);
  EXPECT_EQ(gs.nodes, static_cast<std::uint64_t>(kNodes));
  EXPECT_EQ(ex.pool_size(), size_after_failure);
}

TEST(Executor, NestedGraphInsideNodeDoesNotDeadlock) {
  // Every outer node runs a graph of its own, so helpers of the outer run
  // dispatch helpers of their own: the pool must grow instead of waiting
  // for the busy outer workers.
  constexpr int kOuter = 4, kNodesPerInner = 6;
  std::atomic<int> total{0};
  sched::TaskGraph outer;
  for (int i = 0; i < kOuter; ++i)
    outer.add_node([&total](int) {
      sched::Executor::instance().run_graph(
          counting_graph(kNodesPerInner, total), 2, exec_options());
    }, sched::Stage::Other, i);
  sched::Executor::instance().run_graph(outer, 2, exec_options());
  EXPECT_EQ(total.load(), kOuter * kNodesPerInner);
}

TEST(Executor, ConcurrentRunGraphCallersShareThePool) {
  // Independent threads call run_graph on the shared pool at the same time
  // (several serve replicas or DQMC drivers in one process): every call
  // runs each of its own nodes exactly once and returns its own stats.
  constexpr int kCallers = 4, kRounds = 8, kNodes = 24;
  std::vector<std::atomic<int>> runs(kCallers);
  for (auto& r : runs) r.store(0);
  std::atomic<int> bad_stats{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&runs, &bad_stats, c] {
      for (int round = 0; round < kRounds; ++round) {
        const sched::GraphStats gs = sched::Executor::instance().run_graph(
            counting_graph(kNodes, runs[static_cast<std::size_t>(c)]), 3,
            exec_options());
        if (gs.nodes != static_cast<std::uint64_t>(kNodes)) bad_stats++;
      }
    });
  for (auto& t : callers) t.join();
  for (const auto& r : runs) EXPECT_EQ(r.load(), kRounds * kNodes);
  EXPECT_EQ(bad_stats.load(), 0);
}

TEST(Executor, GraphStatsReportBusyAndReadyTelemetry) {
  sched::TaskGraph g;
  for (int i = 0; i < 8; ++i)
    g.add_node([](int) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }, sched::Stage::Cls);
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(g, 2, exec_options());
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
