#include "fsi/qmc/multi_gf.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "fsi/mpi/minimpi.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/sched/scheduler.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

namespace {

/// Tag for the (task index, measurement payload) records sent to the root.
constexpr int kTagTaskResults = 7;

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

bool use_fine_granularity(const MultiGfOptions& options) {
  switch (options.granularity) {
    case Granularity::Fine: return true;
    case Granularity::Coarse: return false;
    case Granularity::Auto: break;
  }
  return obs::env_flag("FSI_EXEC", true);
}

/// Fine-granularity path: generate the batch's fields and offsets from the
/// run seed — the same (seed)-keyed streams the coarse path broadcasts —
/// then lower everything onto the shared run_fsi_batch graph engine and
/// merge the per-task measurements in ascending task order.  Outputs are
/// disjoint per node and the merge is task-ordered, so the result is
/// bit-identical to the coarse path.
void run_fine_granularity(const HubbardModel& model,
                          const MultiGfOptions& options, index_t c,
                          index_t heavy_cutoff, MultiGfResult& result) {
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const index_t m_total = options.num_matrices;
  const index_t dmax = model.lattice().num_distance_classes();

  // The caller stands in for the root rank: all fields come from one
  // sequential stream, each task's q from (seed, task index) alone.
  std::vector<FsiBatchTask> tasks;
  tasks.reserve(static_cast<std::size_t>(m_total));
  util::Rng root_rng(options.seed);
  for (index_t t = 0; t < m_total; ++t)
    tasks.push_back(FsiBatchTask{HsField(l, n, root_rng), 0, false});
  for (index_t t = 0; t < m_total; ++t) {
    util::Rng task_rng(options.seed, static_cast<std::uint64_t>(t) + 1);
    tasks[static_cast<std::size_t>(t)].q =
        static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
    tasks[static_cast<std::size_t>(t)].heavy = t < heavy_cutoff;
  }

  FsiBatchOptions batch_opts;
  batch_opts.num_workers = options.num_ranks;
  batch_opts.omp_threads_per_worker = options.omp_threads_per_rank;
  batch_opts.cluster_size = c;
  batch_opts.schedule = options.schedule;
  const std::vector<Measurements> per_task =
      run_fsi_batch(model, tasks, batch_opts, &result.sched);

  Measurements global(l, dmax);
  for (const Measurements& m : per_task) global.merge(m);
  result.global = global;
}

}  // namespace

namespace {

/// run_fsi_batch at stage scalar T: per task and spin, a Build node (M and
/// the BlockOps at T) in front of the FSI pipeline emit_fsi_tasks lowers;
/// for T = float a per-task gate node; then the task's Measure node.
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

  // Static owner of each task: the BatchScheduler contiguous preload split,
  // so with stealing disabled the placement is exactly the static baseline;
  // with stealing on, idle workers pick up a straggler task's remaining
  // seed walks, which whole-matrix scheduling could never migrate.
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
            FSI_OBS_SPAN("qmc.build_m");
            sw->mat = std::make_unique<pcyclic::PCyclicMatrix>(
                model.build_m(task.field, spin));
            sw->ops = std::make_unique<pcyclic::BasicBlockOps<T>>(*sw->mat);
            sw->fsi.m = sw->mat.get();
            sw->fsi.ops = sw->ops.get();
          },
          sched::Stage::Build, hint);
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
          [tw, t, c, q = task.q, &mixed_tasks, &mixed_fallbacks](int) {
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
            fp64.q = q;
            fp64.coarse_parallel = false;
            fp64.precision = Precision::Fp64;
            util::Rng unused(0);  // q is fixed
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              s->fsi.results.clear();
              const pcyclic::BlockOps ops(*s->mat);
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
          FSI_OBS_SPAN("qmc.measure");
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
        sched::Stage::Measure, hint);
    if constexpr (kMixed)
      graph.add_edge(gate_node, measure);
    else
      for (sched::NodeId id : fences) graph.add_edge(id, measure);
  }

  sched::ExecOptions exec_opts = sched::ExecOptions::from_env();
  if (options.schedule == Schedule::Static) exec_opts.work_stealing = false;
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
  const int ranks = options.num_ranks;
  FSI_CHECK(ranks > 0, "run_parallel_fsi: need at least one rank");
  FSI_CHECK(m_total > 0, "run_parallel_fsi: need at least one matrix");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_parallel_fsi: cluster size must divide L");
  const std::size_t field_len = static_cast<std::size_t>(l) * n;
  const index_t dmax = model.lattice().num_distance_classes();
  const std::size_t payload_len = Measurements::serialized_size(l, dmax);
  const std::size_t record_len = 1 + payload_len;  // [task index, payload]

  // Tasks [0, heavy_cutoff) run the full three-pattern wrap + SPXX; the rest
  // measure equal-time only.  With the contiguous static preload the heavy
  // front chunk lands on the low ranks — the skew the scheduler rebalances.
  const double frac = std::clamp(options.heavy_fraction, 0.0, 1.0);
  const index_t heavy_cutoff =
      options.measure_time_dependent
          ? static_cast<index_t>(
                std::ceil(frac * static_cast<double>(m_total)))
          : 0;

  MultiGfResult result{Measurements(l, dmax), 0.0, 0, SchedSummary{}};
  util::flops::reset();
  util::WallTimer timer;

  if (use_fine_granularity(options)) {
    run_fine_granularity(model, options, c, heavy_cutoff, result);
    result.seconds = timer.seconds();
    result.flops = util::flops::total();
    return result;
  }

  sched::SchedulerOptions sched_opts = sched::SchedulerOptions::from_env();
  if (options.schedule == Schedule::Static) sched_opts.work_stealing = false;
  sched::BatchScheduler scheduler(ranks, static_cast<std::uint32_t>(m_total),
                                  sched_opts);

  mpi::run(
      ranks,
      [&](mpi::Communicator& comm) {
        // --- On MPI_root: generate all HS fields, broadcast them (Alg. 3
        // scatters the static shares; with task migration every rank may
        // need any field, so the field table is broadcast instead — the
        // same "parameters travel, matrices don't" trade as the paper's).
        std::vector<double> all_fields;
        if (comm.rank() == 0) {
          util::Rng root_rng(options.seed);
          all_fields.reserve(static_cast<std::size_t>(m_total) * field_len);
          for (index_t i = 0; i < m_total; ++i) {
            HsField f(l, n, root_rng);
            const auto buf = f.serialize();
            all_fields.insert(all_fields.end(), buf.begin(), buf.end());
          }
        }
        comm.bcast(all_fields, 0);

        // --- On each MPI_process: scheduler-driven FSI + local
        // measurements.  Everything inside the task body depends only on
        // (seed, task index), so the batch result is invariant under rank
        // count, thread count and steal order.
        std::vector<double> done;  // [task, payload] records, fixed stride
        scheduler.run_worker(comm.rank(), [&](std::uint32_t task) {
          const HsField field = HsField::deserialize(
              l, n,
              all_fields.data() + static_cast<std::size_t>(task) * field_len,
              field_len);
          util::Rng task_rng(options.seed,
                             static_cast<std::uint64_t>(task) + 1);
          const index_t q =
              static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
          const bool heavy = static_cast<index_t>(task) < heavy_cutoff;

          // Per spin: build M, then the loop-shaped fp64 FSI pipeline.
          selinv::FsiOptions fsi_opts;
          fsi_opts.c = c;
          fsi_opts.q = q;
          fsi_opts.exec = selinv::FsiOptions::Exec::OmpLoops;
          fsi_opts.precision = Precision::Fp64;
          auto compute = [&](Spin spin) {
            const pcyclic::PCyclicMatrix mat = model.build_m(field, spin);
            const pcyclic::BlockOps ops(mat);
            return selinv::fsi_multi(mat, ops, task_patterns(heavy), fsi_opts,
                                     task_rng);
          };
          std::vector<pcyclic::SelectedInversion> up = compute(Spin::Up);
          std::vector<pcyclic::SelectedInversion> dn = compute(Spin::Down);

          // This task's measurement quantities.  Serial accumulation into a
          // per-task buffer keeps the floating-point summation order fixed.
          Measurements task_meas(l, dmax);
          measure_task(model, up, dn, heavy, task_meas);

          done.push_back(static_cast<double>(task));
          const std::vector<double> payload = task_meas.serialize();
          done.insert(done.end(), payload.begin(), payload.end());
        });

        // --- Merge on the root in ascending task order (a deterministic
        // replacement for Alg. 3's MPI_Reduce: the records carry their task
        // index, so the summation order never depends on placement).
        if (comm.rank() == 0) {
          std::vector<std::vector<double>> payloads(
              static_cast<std::size_t>(m_total));
          std::vector<bool> seen(static_cast<std::size_t>(m_total), false);
          auto ingest = [&](const std::vector<double>& records) {
            FSI_CHECK(records.size() % record_len == 0,
                      "run_parallel_fsi: malformed task-result records");
            for (std::size_t off = 0; off < records.size();
                 off += record_len) {
              const auto task = static_cast<std::size_t>(records[off]);
              FSI_CHECK(task < static_cast<std::size_t>(m_total) &&
                            !seen[task],
                        "run_parallel_fsi: duplicate or out-of-range task");
              seen[task] = true;
              payloads[task].assign(records.begin() + off + 1,
                                    records.begin() + off + record_len);
            }
          };
          ingest(done);
          for (int r = 1; r < comm.size(); ++r)
            ingest(comm.recv(r, kTagTaskResults));
          Measurements global(l, dmax);
          for (index_t t = 0; t < m_total; ++t) {
            FSI_CHECK(seen[static_cast<std::size_t>(t)],
                      "run_parallel_fsi: task result missing");
            global.merge(Measurements::deserialize(
                l, dmax, payloads[static_cast<std::size_t>(t)]));
          }
          result.global = global;
        } else {
          comm.send(0, kTagTaskResults, std::move(done));
        }
      },
      options.omp_threads_per_rank);

  result.seconds = timer.seconds();
  result.flops = util::flops::total();
  result.sched.workers = scheduler.workers();
  result.sched.tasks = scheduler.tasks();
  result.sched.steal_batches = scheduler.total_steal_batches();
  result.sched.stolen_tasks = scheduler.total_stolen_tasks();
  result.sched.busy_max_seconds = scheduler.busy_max_seconds();
  result.sched.busy_mean_seconds = scheduler.busy_mean_seconds();
  result.sched.busy_seconds = scheduler.busy_seconds();
  return result;
}

}  // namespace fsi::qmc
