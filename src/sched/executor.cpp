#include "fsi/sched/executor.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>

#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/util/check.hpp"

namespace fsi::sched {

// ---------------------------------------------------------------------------
// GraphRunner

namespace {
/// Sleep between failed steal scans: long enough that idle workers leave
/// the cores to busy ones, short next to a node's body.
constexpr std::chrono::microseconds kIdleBackoff{50};
}  // namespace

GraphRunner::GraphRunner(const TaskGraph& graph, int num_workers,
                         ExecOptions options)
    : graph_(graph), num_workers_(num_workers), options_(options),
      remaining_(static_cast<std::uint32_t>(graph.nodes_.size())),
      durations_(graph.nodes_.size(), 0.0) {
  FSI_CHECK(num_workers > 0, "GraphRunner: need at least one worker");
  graph.validate();
  deps_ = std::make_unique<std::atomic<std::uint32_t>[]>(graph.nodes_.size());
  for (std::size_t i = 0; i < graph.nodes_.size(); ++i)
    deps_[i].store(graph.nodes_[i].num_deps, std::memory_order_relaxed);
  deques_.reserve(static_cast<std::size_t>(num_workers));
  per_worker_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    deques_.push_back(std::make_unique<TaskDeque>());
    per_worker_.push_back(std::make_unique<PerWorker>());
  }
  // Dependency-free nodes go to their owner-hint deque in emission order:
  // with owner hints from a contiguous split this is the static preload.
  // Everything else enters a deque only when its last dependency retires.
  for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
    if (graph.nodes_[i].num_deps != 0) continue;
    const int hint = graph.nodes_[i].owner_hint;
    const int owner = (hint >= 0 && hint < num_workers) ? hint
                      : ((hint % num_workers) + num_workers) % num_workers;
    deques_[static_cast<std::size_t>(owner)]->push(static_cast<NodeId>(i));
  }
}

void GraphRunner::run_worker(int worker) {
  FSI_CHECK(worker >= 0 && worker < num_workers_,
            "GraphRunner: worker id out of range");
  TaskDeque& mine = *deques_[static_cast<std::size_t>(worker)];
  PerWorker& pw = *per_worker_[static_cast<std::size_t>(worker)];
  std::vector<std::uint32_t> loot;

  for (;;) {
    std::uint32_t id;
    if (mine.pop(id)) {
      const double depth = static_cast<double>(mine.size());
      pw.ready_depth_sum += depth;
      ++pw.pops;
      obs::metrics::record(obs::metrics::Hist::ReadyDepth, depth);
      const TaskGraph::Node& node = graph_.nodes_[id];
      // One pair of clock reads feeds both the node's busy time and its
      // span: a preemption anywhere inside lands in both or in neither.
      const std::int64_t t0 = obs::now_ns();
      const bool run = !cancelled_.load(std::memory_order_relaxed);
      if (run) {
        try {
          node.body(worker);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu_);
            if (!first_error_) first_error_ = std::current_exception();
          }
          // Cancel: remaining node bodies are skipped but every node is
          // still retired, so the termination count reaches zero and no
          // worker deadlocks waiting for work that will never appear.
          cancelled_.store(true, std::memory_order_relaxed);
        }
      }
      const std::int64_t t1 = obs::now_ns();
      if (run && node.span != nullptr) obs::record_interval(node.span, t0, t1);
      const double s = static_cast<double>(t1 - t0) * 1e-9;
      durations_[id] = s;
      StageStats& ss = pw.stage[static_cast<int>(node.stage)];
      ++ss.nodes;
      ss.busy_seconds += s;
      ss.max_seconds = std::max(ss.max_seconds, s);
      pw.base.busy_seconds += s;
      ++pw.base.executed;
      obs::metrics::add(obs::metrics::Counter::ExecNodes, 1);
      obs::metrics::record(obs::metrics::Hist::NodeSeconds, s);
      // Release successors.  The acq_rel RMW chain on the dependency count
      // makes every predecessor's writes visible to whichever worker pops
      // the successor.  push_front keeps the owner depth-first.
      for (NodeId succ : node.successors)
        if (deps_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1)
          mine.push_front(succ);
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    if (options_.work_stealing && num_workers_ > 1) {
      bool stole = false;
      for (int i = 1; i < num_workers_ && !stole; ++i) {
        TaskDeque& victim =
            *deques_[static_cast<std::size_t>((worker + i) % num_workers_)];
        loot.clear();
        if (victim.steal_half(loot) > 0) {
          for (std::uint32_t t : loot) mine.push(t);
          ++pw.base.steal_batches;
          pw.base.stolen_tasks += loot.size();
          obs::metrics::add(obs::metrics::Counter::ExecSteals, 1);
          stole = true;
        }
      }
      if (stole) continue;
    }
    std::this_thread::sleep_for(kIdleBackoff);
  }

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
}

GraphStats GraphRunner::stats() const {
  GraphStats g;
  g.nodes = graph_.nodes_.size();
  g.busy_seconds.reserve(static_cast<std::size_t>(num_workers_));
  double busy_sum = 0.0, depth_sum = 0.0;
  std::uint64_t pops = 0;
  for (const auto& pw : per_worker_) {
    g.steal_batches += pw->base.steal_batches;
    g.stolen_nodes += pw->base.stolen_tasks;
    g.busy_max_seconds = std::max(g.busy_max_seconds, pw->base.busy_seconds);
    busy_sum += pw->base.busy_seconds;
    g.busy_seconds.push_back(pw->base.busy_seconds);
    depth_sum += pw->ready_depth_sum;
    pops += pw->pops;
    for (int s = 0; s < kNumStages; ++s) {
      g.stage[s].nodes += pw->stage[s].nodes;
      g.stage[s].busy_seconds += pw->stage[s].busy_seconds;
      g.stage[s].max_seconds =
          std::max(g.stage[s].max_seconds, pw->stage[s].max_seconds);
    }
  }
  g.busy_mean_seconds =
      num_workers_ > 0 ? busy_sum / num_workers_ : 0.0;
  g.ready_depth_mean = pops > 0 ? depth_sum / static_cast<double>(pops) : 0.0;
  // Critical path: longest duration-weighted chain, via one Kahn pass over
  // the measured per-node durations.
  const std::size_t n = graph_.nodes_.size();
  std::vector<double> finish(n, 0.0);
  std::vector<std::uint32_t> indeg(n);
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = graph_.nodes_[i].num_deps;
    if (indeg[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    finish[v] += durations_[v];
    g.critical_path_seconds = std::max(g.critical_path_seconds, finish[v]);
    for (NodeId succ : graph_.nodes_[v].successors) {
      finish[succ] = std::max(finish[succ], finish[v]);
      if (--indeg[succ] == 0) ready.push_back(succ);
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Executor

/// Completion state of one dispatch: written by the job wrappers under the
/// pool mutex, waited on by the dispatcher.
struct Executor::Batch {
  int pending = 0;  // guarded by Executor::mu_
};

Executor& Executor::instance() {
  static Executor* global = new Executor();  // leaked deliberately
  return *global;
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_ptr<Executor::Batch> Executor::dispatch(
    int n, const std::function<void(int)>& job) {
  auto batch = std::make_shared<Batch>();
  batch->pending = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FSI_CHECK(!shutdown_, "Executor: dispatch after shutdown");
    std::vector<std::size_t> chosen;
    chosen.reserve(static_cast<std::size_t>(n));
    for (std::size_t s = 0; s < slots_.size() && chosen.size() < static_cast<std::size_t>(n); ++s)
      if (!slots_[s]->busy) chosen.push_back(s);
    // Grow instead of waiting for busy workers: a dispatch from inside a
    // pool worker (a graph run from inside a node) must never block on the
    // workers it is itself occupying.
    while (chosen.size() < static_cast<std::size_t>(n)) {
      slots_.push_back(std::make_unique<Slot>());
      const std::size_t s = slots_.size() - 1;
      threads_.emplace_back([this, s] { worker_main(s); });
      chosen.push_back(s);
    }
    obs::metrics::set(obs::metrics::Gauge::ExecPoolWorkers,
                      static_cast<double>(slots_.size()));
    for (int i = 0; i < n; ++i) {
      Slot* slot = slots_[chosen[static_cast<std::size_t>(i)]].get();
      slot->busy = true;
      slot->job = [this, batch, job, i, slot] {
        job(i);
        {
          std::lock_guard<std::mutex> lock(mu_);
          slot->busy = false;
          --batch->pending;
        }
        done_cv_.notify_all();
      };
    }
  }
  job_cv_.notify_all();
  return batch;
}

void Executor::wait_batch(const std::shared_ptr<Batch>& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch->pending == 0; });
}

void Executor::worker_main(std::size_t slot_index) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Slot* slot = slots_[slot_index].get();
      job_cv_.wait(lock, [&] { return shutdown_ || slot->job != nullptr; });
      if (slot->job == nullptr) return;  // shutdown with nothing assigned
      job = std::move(slot->job);
      slot->job = nullptr;
    }
    job();
  }
}

GraphStats Executor::run_graph(const TaskGraph& graph, int workers,
                               const ExecOptions& options) {
  FSI_CHECK(workers > 0, "Executor: need at least one graph worker");
  GraphRunner runner(graph, workers, options);
  const int caller_omp = omp_get_max_threads();
  const int team = options.omp_threads > 0 ? options.omp_threads : caller_omp;
  std::shared_ptr<Batch> helpers;
  if (workers > 1) {
    helpers = dispatch(workers - 1, [&runner, team](int i) {
      omp_set_num_threads(team);
      // Worker 0 is the caller; helper i drives deque i + 1.  A node
      // exception is recorded inside the runner and rethrown by every
      // worker after the drain — the caller's rethrow below reports it, so
      // the helpers' copies are swallowed here.
      try {
        runner.run_worker(i + 1);
      } catch (...) {
      }
    });
  }
  if (options.omp_threads > 0) omp_set_num_threads(options.omp_threads);
  try {
    runner.run_worker(0);
  } catch (...) {
    if (helpers) wait_batch(helpers);
    if (options.omp_threads > 0) omp_set_num_threads(caller_omp);
    throw;
  }
  if (helpers) wait_batch(helpers);
  if (options.omp_threads > 0) omp_set_num_threads(caller_omp);
  return runner.stats();
}

int Executor::pool_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(slots_.size());
}

}  // namespace fsi::sched
