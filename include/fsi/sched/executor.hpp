#pragma once
/// \file executor.hpp
/// \brief Persistent worker pool + dependency-aware graph execution.
///
/// run_graph(graph, workers, opts) is the one entry point: it executes a
/// validated TaskGraph on the calling thread (worker 0) plus up to
/// workers-1 long-lived pool helpers.  Dependency-free nodes are preloaded
/// to their owner-hint worker's TaskDeque (with stealing off, that
/// placement is the static split); newly-ready successors go to the *front*
/// of the finishing worker's deque (depth-first, bounding live per-task
/// memory) while idle workers steal the back half of a victim's deque.
///
/// The pool grows on demand and never blocks waiting for a busy worker, so
/// nested dispatch (a graph run from inside a node, or several threads
/// calling run_graph at once) cannot deadlock.  Idle pool threads sleep on
/// a condition variable.  Executor::instance() is the lazily-created,
/// intentionally-leaked global; local instances are constructible for
/// tests.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fsi/sched/task_graph.hpp"
#include "fsi/sched/task_queue.hpp"

namespace fsi::sched {

/// Knobs of one graph run.
struct ExecOptions {
  bool work_stealing = true;  ///< false = nodes never leave their owner
  int omp_threads = 0;        ///< >0: OMP team size set on every worker
};

/// Per-worker execution statistics, owner-written, read after the run.
struct WorkerStats {
  std::uint64_t executed = 0;       ///< nodes this worker ran
  std::uint64_t steal_batches = 0;  ///< successful steal_half() calls
  std::uint64_t stolen_tasks = 0;   ///< nodes acquired by stealing
  double busy_seconds = 0.0;        ///< wall time inside node bodies
};

/// Per-stage node telemetry of one graph run.
struct StageStats {
  std::uint64_t nodes = 0;     ///< nodes executed with this stage tag
  double busy_seconds = 0.0;   ///< summed node durations (span sum)
  double max_seconds = 0.0;    ///< slowest single node
};

/// Aggregate telemetry of one graph run (valid after every worker returned).
struct GraphStats {
  std::uint64_t nodes = 0;
  std::uint64_t steal_batches = 0;
  std::uint64_t stolen_nodes = 0;
  double busy_max_seconds = 0.0;
  double busy_mean_seconds = 0.0;
  std::vector<double> busy_seconds;  ///< per worker, for imbalance export
  double ready_depth_mean = 0.0;     ///< own-deque depth sampled at pops
  /// Longest duration-weighted dependency chain — the lower bound on wall
  /// time with unlimited workers; wall/critical-path is the achievable
  /// speedup ceiling the bench telemetry reports against.
  double critical_path_seconds = 0.0;
  StageStats stage[kNumStages];

  const StageStats& of(Stage s) const {
    return stage[static_cast<int>(s)];
  }
};

/// Cooperative execution state of one TaskGraph over num_workers workers.
/// Construct once (validates the graph, preloads dependency-free nodes to
/// their owner-hint deques), then have each of the num_workers concurrent
/// threads call run_worker() with its own id.  Executor::run_graph wraps
/// this with pool helpers for the single-caller case.
///
/// Exception policy: the first throwing node body cancels the run — the
/// remaining nodes are drained without executing their bodies, so the
/// termination count still reaches zero and no worker deadlocks — and every
/// run_worker() call rethrows that first exception after the drain.
class GraphRunner {
 public:
  GraphRunner(const TaskGraph& graph, int num_workers, ExecOptions options);

  /// Worker \p worker's loop: pop own deque front, else steal, else back
  /// off (sleep 50 us); returns when every node of the graph has been
  /// retired.
  void run_worker(int worker);

  int workers() const { return num_workers_; }

  /// Aggregate telemetry; valid once run_worker() returned on every worker.
  GraphStats stats() const;

 private:
  struct PerWorker {
    WorkerStats base;
    double ready_depth_sum = 0.0;
    std::uint64_t pops = 0;
    StageStats stage[kNumStages];
  };

  const TaskGraph& graph_;
  int num_workers_;
  ExecOptions options_;
  std::atomic<std::uint32_t> remaining_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> deps_;
  std::vector<double> durations_;  ///< per node, written by its executor
  std::vector<std::unique_ptr<TaskDeque>> deques_;
  std::vector<std::unique_ptr<PerWorker>> per_worker_;
  std::atomic<bool> cancelled_{false};
  mutable std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// The persistent worker pool.
class Executor {
 public:
  Executor() = default;
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool, created on first use and deliberately leaked
  /// (workers park on a condition variable; joining at static destruction
  /// would race user code).
  static Executor& instance();

  /// Execute \p graph on the calling thread plus up to workers-1 pool
  /// helpers.  Helpers are reused across calls; the pool grows (never
  /// blocks) when fewer than workers-1 are free.  The caller participates
  /// as worker 0, so a graph run from inside a node degrades gracefully
  /// instead of deadlocking.  Rethrows the first node exception after the
  /// graph has drained.
  GraphStats run_graph(const TaskGraph& graph, int workers,
                       const ExecOptions& options);

  /// Threads currently in the pool (grows monotonically).
  int pool_size() const;

 private:
  struct Slot {
    std::function<void()> job;  ///< guarded by mu_; non-empty = assigned
    bool busy = false;          ///< guarded by mu_
  };
  struct Batch;  // dispatch-completion state, defined in executor.cpp

  /// Pick n free slots (growing the pool as needed) and hand each a job,
  /// which must not throw.  Returns the shared completion state to
  /// wait_batch() on.
  std::shared_ptr<Batch> dispatch(
      int n, const std::function<void(int slot_index)>& job);
  void wait_batch(const std::shared_ptr<Batch>& batch);
  void worker_main(std::size_t slot_index);

  mutable std::mutex mu_;
  std::condition_variable job_cv_;   ///< workers: wait for a job
  std::condition_variable done_cv_;  ///< dispatchers: wait for completion
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace fsi::sched
