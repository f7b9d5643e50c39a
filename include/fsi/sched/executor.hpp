#pragma once
/// \file executor.hpp
/// \brief Persistent worker pool + dependency-aware graph execution.
///
/// Two responsibilities, one pool of long-lived threads:
///
///   - run_ranks(n, body): dispatch body(0..n-1) onto n dedicated pool
///     workers *concurrently* (mini-MPI ranks block on barriers, so they
///     must all run at once, never be queued) and block until all return.
///     This replaces the per-batch std::thread spawn/join in mpi::run — a
///     DQMC run dispatches one batch per measurement sweep, and thread
///     creation latency was pure overhead between sweeps.
///
///   - run_graph(graph, workers, opts): execute a validated TaskGraph on
///     the calling thread (worker 0) plus up to workers-1 pool helpers.
///     Ready nodes flow through the same owner-FIFO / steal-half TaskDeques
///     as the batch scheduler; newly-ready successors go to the *front* of
///     the finishing worker's deque (depth-first, bounding live per-task
///     memory) while thieves take coarse future work from the back.
///
/// The pool grows on demand and never blocks waiting for a busy worker, so
/// nested dispatch (a graph run inside a rank body, a rank batch inside a
/// test) cannot deadlock.  Idle workers sleep on a condition variable.
/// Executor::instance() is the lazily-created, intentionally-leaked global;
/// local instances are constructible for tests.
///
/// Environment (table in docs/parallelism.md): FSI_SCHED (stealing on/off,
/// shared with BatchScheduler), FSI_EXEC_WORKERS, FSI_EXEC_BACKOFF_US.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fsi/sched/scheduler.hpp"
#include "fsi/sched/task_graph.hpp"
#include "fsi/sched/task_queue.hpp"

namespace fsi::sched {

/// Knobs of one graph run.
struct ExecOptions {
  bool work_stealing = true;  ///< false = nodes never leave their owner
  int backoff_us = 50;        ///< idle backoff between failed steal scans
  int omp_threads = 0;        ///< >0: OMP team size set on every worker

  /// Defaults overlaid with FSI_SCHED / FSI_EXEC_BACKOFF_US.
  static ExecOptions from_env();
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
/// threads call run_worker() with its own id — mini-MPI ranks can drive one
/// shared GraphRunner directly.  Executor::run_graph wraps this with pool
/// helpers for the single-caller case.
///
/// Exception policy: the first throwing node body cancels the run — the
/// remaining nodes are drained without executing their bodies, so the
/// termination count still reaches zero and no worker deadlocks — and every
/// run_worker() call rethrows that first exception after the drain.
class GraphRunner {
 public:
  GraphRunner(const TaskGraph& graph, int num_workers, ExecOptions options);

  /// Worker \p worker's loop: pop own deque front, else steal, else back
  /// off; returns when every node of the graph has been retired.
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

  /// Dispatch body(0), ..., body(n-1) onto n distinct pool workers, block
  /// until all have returned, rethrow the first exception.  Workers are
  /// reused across calls; the pool grows (never blocks) when fewer than n
  /// are free.  When \p omp_threads > 0 each worker's OpenMP team size is
  /// set to it for this batch; otherwise the default captured at pool
  /// construction is restored — a previous batch's setting never leaks.
  void run_ranks(int n, const std::function<void(int)>& body,
                 int omp_threads = 0);

  /// Execute \p graph on the calling thread plus up to workers-1 pool
  /// helpers.  The caller participates as worker 0, so a graph run from
  /// inside a rank body degrades gracefully instead of deadlocking.
  /// Rethrows the first node exception after the graph has drained.
  GraphStats run_graph(const TaskGraph& graph, int workers,
                       const ExecOptions& options);

  /// Threads currently in the pool (grows monotonically).
  int pool_size() const;

  /// run_ranks batches dispatched so far (bench overhead accounting).
  std::uint64_t dispatch_count() const;

 private:
  struct Slot {
    std::function<void()> job;  ///< guarded by mu_; non-empty = assigned
    bool busy = false;          ///< guarded by mu_
  };
  struct Batch;  // dispatch-completion state, defined in executor.cpp

  /// Pick n free slots (growing the pool as needed) and hand each a job.
  /// Returns the shared completion state to wait_batch() on.
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
  std::uint64_t dispatches_ = 0;
  int default_omp_threads_ = 0;  ///< OMP ICV captured at first growth
};

}  // namespace fsi::sched
