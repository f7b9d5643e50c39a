#include "fsi/qmc/multi_gf.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

namespace {

/// The patterns one task wraps: all diagonals for the equal-time
/// measurements, plus block rows and columns for SPXX when it is heavy.
std::vector<pcyclic::Pattern> task_patterns(bool heavy) {
  if (!heavy) return {pcyclic::Pattern::AllDiagonals};
  return {pcyclic::Pattern::AllDiagonals, pcyclic::Pattern::Rows,
          pcyclic::Pattern::Columns};
}

/// One task's measurements from both spins' task_patterns results, in a
/// fixed serial order.
void measure_task(const HubbardModel& model,
                  const std::vector<pcyclic::SelectedInversion>& up,
                  const std::vector<pcyclic::SelectedInversion>& dn,
                  bool heavy, Measurements& meas) {
  meas.add_sample(1.0);
  accumulate_equal_time(model.lattice(), up[0], dn[0], model.params().t, 1.0,
                        false, meas);
  if (heavy)
    accumulate_spxx(model.lattice(), up[1], up[2], dn[1], dn[2], 1.0, false,
                    meas);
}

/// run_fsi_batch at stage scalar T: per task and spin, a Build node (M, and
/// the BlockOps at T from the model's closed-form B^-1) in front of the FSI
/// pipeline emit_fsi_tasks lowers; for T = float a per-task gate node; then
/// the task's Measure node.
template <typename T>
std::vector<Measurements> run_batch(const HubbardModel& model,
                                    const std::vector<FsiBatchTask>& tasks,
                                    const FsiBatchOptions& options,
                                    SchedSummary* sched_out) {
  constexpr bool kMixed = std::is_same_v<T, float>;
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const auto m_total = static_cast<index_t>(tasks.size());
  FSI_CHECK(m_total > 0, "run_fsi_batch: need at least one task");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_fsi_batch: cluster size must divide L");
  for (const FsiBatchTask& task : tasks) {
    FSI_CHECK(task.field.num_slices() == l && task.field.num_sites() == n,
              "run_fsi_batch: field dimensions must match the model");
    FSI_CHECK(task.q >= 0 && task.q < c, "run_fsi_batch: q out of [0, c)");
  }
  int workers = options.num_workers > 0 ? options.num_workers
                                        : omp_get_max_threads();
  if (workers < 1) workers = 1;
  const index_t dmax = model.lattice().num_distance_classes();

  // Static owner of each task: the contiguous split [w*m/W, (w+1)*m/W), so
  // with stealing disabled the placement is exactly Alg. 3's static
  // baseline; with stealing on, idle workers pick up a straggler task's
  // remaining seed walks, which whole-matrix scheduling could never migrate.
  std::vector<int> owner(static_cast<std::size_t>(m_total), 0);
  for (int w = 0; w < workers; ++w) {
    const auto lo = static_cast<index_t>(
        static_cast<std::uint64_t>(m_total) * static_cast<std::uint64_t>(w) /
        static_cast<std::uint64_t>(workers));
    const auto hi = static_cast<index_t>(
        static_cast<std::uint64_t>(m_total) * (static_cast<std::uint64_t>(w) + 1) /
        static_cast<std::uint64_t>(workers));
    for (index_t t = lo; t < hi; ++t) owner[static_cast<std::size_t>(t)] = w;
  }

  // Mixed-task telemetry, accumulated by the gate nodes.
  std::atomic<std::uint32_t> mixed_tasks{0};
  std::atomic<std::uint32_t> mixed_fallbacks{0};

  /// Per-spin storage: the Build node sets mat/ops and points fsi at them;
  /// the emitted FSI nodes fill fsi.
  struct SpinWork {
    std::unique_ptr<pcyclic::PCyclicMatrix> mat;
    std::unique_ptr<pcyclic::BasicBlockOps<T>> ops;
    selinv::FsiGraphTask<T> fsi;
  };
  struct TaskWork {
    bool heavy;
    SpinWork up, dn;
  };

  std::vector<std::unique_ptr<TaskWork>> work;
  work.reserve(static_cast<std::size_t>(m_total));
  // One result slot per task: the Measure nodes write disjoint entries, so
  // the per-task accumulation order is fixed and worker-count independent.
  std::vector<Measurements> results(static_cast<std::size_t>(m_total),
                                    Measurements(l, dmax));

  sched::TaskGraph graph;
  for (index_t t = 0; t < m_total; ++t) {
    const FsiBatchTask& task = tasks[static_cast<std::size_t>(t)];
    const pcyclic::Selection sel(l, c, task.q);
    work.push_back(std::make_unique<TaskWork>());
    TaskWork* tw = work.back().get();
    tw->heavy = task.heavy;
    const int hint = owner[static_cast<std::size_t>(t)];

    std::vector<sched::NodeId> fences;  // all wrap nodes of both spins
    for (SpinWork* sw : {&tw->up, &tw->dn}) {
      const Spin spin = (sw == &tw->up) ? Spin::Up : Spin::Down;
      const sched::NodeId build = graph.add_node(
          [&model, &task, sw, spin](int) {
            sw->mat = std::make_unique<pcyclic::PCyclicMatrix>(
                model.build_m(task.field, spin));
            sw->ops = std::make_unique<pcyclic::BasicBlockOps<T>>(
                *sw->mat, model.b_inverses(task.field, spin));
            sw->fsi.m = sw->mat.get();
            sw->fsi.ops = sw->ops.get();
          },
          sched::Stage::Build, hint, "qmc.build_m");
      sw->fsi.sel = sel;
      sw->fsi.patterns = task_patterns(task.heavy);
      const selinv::FsiEmit emit =
          selinv::emit_fsi_tasks(graph, sw->fsi, hint, build);
      fences.insert(fences.end(), emit.wrap_nodes.begin(),
                    emit.wrap_nodes.end());
    }

    // Mixed tasks get a gate node between the wrap fences and the
    // measurement: selinv::mixed_gate_verdict on both spins; on a trip,
    // both spins are recomputed in-node by the serial fp64 fsi_multi, so
    // the measurement downstream always consumes gated data.
    sched::NodeId gate_node = 0;
    if constexpr (kMixed) {
      gate_node = graph.add_node(
          [&model, &task, tw, t, c, &mixed_tasks, &mixed_fallbacks](int) {
            mixed_tasks.fetch_add(1, std::memory_order_relaxed);
            obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
            const selinv::MixedGate gate = selinv::mixed_gate();
            const char* reason = nullptr;
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              reason = selinv::mixed_gate_verdict(s->fsi, gate);
              if (reason != nullptr) break;
            }
            // fp32 context is spent either way.
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              s->fsi.gtilde = {};
              s->ops.reset();
            }
            if (reason == nullptr) return;
            mixed_fallbacks.fetch_add(1, std::memory_order_relaxed);
            obs::metrics::add(obs::metrics::Counter::MixedFallbacks, 1);
            FSI_LOG_WARN("qmc.mixed_fallback", {"task", t}, {"reason", reason},
                         {"resid_max", gate.resid_max},
                         {"cond_max", gate.cond_max});
            selinv::FsiOptions fp64;
            fp64.c = c;
            fp64.q = task.q;
            fp64.coarse_parallel = false;
            fp64.precision = Precision::Fp64;
            util::Rng unused(0);  // q is fixed
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              s->fsi.results.clear();
              const Spin spin = (s == &tw->up) ? Spin::Up : Spin::Down;
              const pcyclic::BlockOps ops(*s->mat,
                                          model.b_inverses(task.field, spin));
              s->fsi.results =
                  selinv::fsi_multi(*s->mat, ops, s->fsi.patterns, fp64, unused);
            }
          },
          sched::Stage::Measure, hint);
      for (sched::NodeId id : fences) graph.add_edge(id, gate_node);
    }

    // The per-task Measure node: serial accumulation into this task's
    // result slot (fixed floating-point order), then free everything the
    // task holds, so a batch's in-flight memory does not grow with its
    // task count.
    const sched::NodeId measure = graph.add_node(
        [&model, &results, tw, t](int) {
          tw->up.fsi.gtilde = {};
          tw->dn.fsi.gtilde = {};
          measure_task(model, tw->up.fsi.results, tw->dn.fsi.results,
                       tw->heavy, results[static_cast<std::size_t>(t)]);
          for (SpinWork* s : {&tw->up, &tw->dn}) {
            s->fsi.results.clear();
            s->ops.reset();
            s->mat.reset();
          }
        },
        sched::Stage::Measure, hint, "qmc.measure");
    if constexpr (kMixed)
      graph.add_edge(gate_node, measure);
    else
      for (sched::NodeId id : fences) graph.add_edge(id, measure);
  }

  sched::ExecOptions exec_opts;
  exec_opts.work_stealing = options.schedule == Schedule::WorkStealing;
  exec_opts.omp_threads = options.omp_threads_per_worker;
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(graph, workers, exec_opts);

  if (sched_out != nullptr) {
    sched_out->workers = workers;
    sched_out->tasks = static_cast<std::uint32_t>(m_total);
    sched_out->steal_batches = gs.steal_batches;
    sched_out->stolen_tasks = gs.stolen_nodes;
    sched_out->busy_max_seconds = gs.busy_max_seconds;
    sched_out->busy_mean_seconds = gs.busy_mean_seconds;
    sched_out->busy_seconds = gs.busy_seconds;
    sched_out->graph_nodes = gs.nodes;
    sched_out->critical_path_seconds = gs.critical_path_seconds;
    sched_out->ready_depth_mean = gs.ready_depth_mean;
    sched_out->stage_build_seconds = gs.of(sched::Stage::Build).busy_seconds;
    sched_out->stage_cls_seconds = gs.of(sched::Stage::Cls).busy_seconds;
    sched_out->stage_bsofi_seconds = gs.of(sched::Stage::Bsofi).busy_seconds;
    sched_out->stage_wrap_seconds = gs.of(sched::Stage::Wrap).busy_seconds;
    sched_out->stage_measure_seconds =
        gs.of(sched::Stage::Measure).busy_seconds;
    sched_out->mixed_tasks = mixed_tasks.load(std::memory_order_relaxed);
    sched_out->mixed_fallbacks =
        mixed_fallbacks.load(std::memory_order_relaxed);
  }
  return results;
}

}  // namespace

std::vector<Measurements> run_fsi_batch(const HubbardModel& model,
                                        const std::vector<FsiBatchTask>& tasks,
                                        const FsiBatchOptions& options,
                                        SchedSummary* sched_out) {
  if (options.precision == Precision::Mixed)
    return run_batch<float>(model, tasks, options, sched_out);
  return run_batch<double>(model, tasks, options, sched_out);
}

MultiGfResult run_parallel_fsi(const HubbardModel& model,
                               const MultiGfOptions& options) {
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const index_t m_total = options.num_matrices;
  FSI_CHECK(options.num_ranks > 0, "run_parallel_fsi: need at least one rank");
  FSI_CHECK(m_total > 0, "run_parallel_fsi: need at least one matrix");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_parallel_fsi: cluster size must divide L");

  // Tasks [0, heavy_cutoff) run the full three-pattern wrap + SPXX; the rest
  // measure equal-time only.  With the contiguous static split the heavy
  // front chunk lands on the low workers — the skew stealing rebalances.
  const double frac = std::clamp(options.heavy_fraction, 0.0, 1.0);
  const index_t heavy_cutoff =
      options.measure_time_dependent
          ? static_cast<index_t>(
                std::ceil(frac * static_cast<double>(m_total)))
          : 0;

  // The caller stands in for the root rank: all fields come from one
  // sequential stream, each task's q from (seed, task index) alone.
  std::vector<FsiBatchTask> tasks;
  tasks.reserve(static_cast<std::size_t>(m_total));
  util::Rng root_rng(options.seed);
  for (index_t t = 0; t < m_total; ++t) {
    util::Rng task_rng(options.seed, static_cast<std::uint64_t>(t) + 1);
    const auto q =
        static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
    tasks.push_back(FsiBatchTask{HsField(l, n, root_rng), q, t < heavy_cutoff});
  }

  FsiBatchOptions batch_opts;
  batch_opts.num_workers = options.num_ranks;
  batch_opts.omp_threads_per_worker = options.omp_threads_per_rank;
  batch_opts.cluster_size = c;
  batch_opts.schedule = options.schedule;

  MultiGfResult result{Measurements(l, model.lattice().num_distance_classes()),
                       0.0, 0, SchedSummary{}};
  const util::flops::Scope flops;
  util::WallTimer timer;
  const std::vector<Measurements> per_task =
      run_fsi_batch(model, tasks, batch_opts, &result.sched);
  result.seconds = timer.seconds();
  result.flops = flops.elapsed();
  for (const Measurements& m : per_task) result.global.merge(m);
  return result;
}

}  // namespace fsi::qmc
