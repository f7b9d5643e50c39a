#pragma once
/// \file multi_gf.hpp
/// \brief Parallel application of FSI to many Green's functions
/// (paper Alg. 3 / Fig. 5) on the persistent graph executor.
///
/// DQMC needs selected inversions of tens of thousands of Hubbard matrices.
/// The matrices are parameterised by the Hubbard-Stratonovich field, so —
/// exactly as the paper prescribes — the caller stands in for the root rank:
/// it generates the random fields (not the matrices), each task builds its
/// matrices locally, runs FSI and computes its measurement quantities, and
/// the per-task results are merged into the global measurements.
///
/// Every task and spin is lowered into one task graph (build -> cluster
/// products -> BSOFI -> seed walks -> measure) on sched::Executor.  Each
/// worker's deque is preloaded with the contiguous static share
/// [w*m/W, (w+1)*m/W) of the tasks' nodes, and idle workers steal the back
/// half of a victim's backlog, so heterogeneous batches (see
/// \ref MultiGfOptions::heavy_fraction) balance automatically.  The result
/// is bit-identical regardless of worker count, team size or steal order:
/// each task derives its wrapping offset q from (seed, task index) alone,
/// accumulates its measurements serially into a per-task buffer, and the
/// buffers are merged in ascending task order.

#include <cstdint>
#include <vector>

#include "fsi/precision.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/measurements.hpp"

namespace fsi::qmc {

/// How the batch's graph nodes are spread over the executor's workers.
enum class Schedule {
  WorkStealing,  ///< idle workers steal from busy ones (default)
  Static,        ///< nodes never leave the worker owning their task: the
                 ///< frozen contiguous split, the paper's Alg. 3 baseline
};

/// Options of one hybrid run (paper Fig. 9 sweeps ranks x threads with the
/// product fixed at the machine's core count).
struct MultiGfOptions {
  index_t num_matrices = 8;      ///< total Hubbard matrices (per spin pair)
  int num_ranks = 2;             ///< graph workers (Alg. 3's ranks)
  int omp_threads_per_rank = 0;  ///< OpenMP team size per worker (0 = default)
  index_t cluster_size = 0;      ///< 0 = divisor of L nearest sqrt(L)
  bool measure_time_dependent = true;
  /// Fraction of the batch (front-loaded) that also computes the Rows /
  /// Columns wrapping passes and SPXX; the rest measures equal-time only.
  /// 1.0 = homogeneous batch; < 1.0 makes the batch skewed — the contiguous
  /// static split then overloads the low workers, which is exactly the
  /// imbalance work stealing is there to fix.  Ignored (treated as 0) when
  /// measure_time_dependent is false.
  double heavy_fraction = 1.0;
  Schedule schedule = Schedule::WorkStealing;
  std::uint64_t seed = 99;
};

/// Executor telemetry of one run_parallel_fsi / run_fsi_batch call.
struct SchedSummary {
  int workers = 0;                  ///< graph workers driving the batch
  std::uint32_t tasks = 0;          ///< matrices scheduled
  std::uint64_t steal_batches = 0;  ///< successful steals across all workers
  std::uint64_t stolen_tasks = 0;   ///< graph nodes that migrated via stealing
  double busy_max_seconds = 0.0;    ///< busiest worker's in-node wall time
  double busy_mean_seconds = 0.0;   ///< mean in-node wall time per worker
  std::vector<double> busy_seconds; ///< per-worker in-node wall time

  // --- task-graph telemetry -------------------------------------------------
  std::uint64_t graph_nodes = 0;       ///< task-graph nodes executed
  double critical_path_seconds = 0.0;  ///< duration-weighted longest chain
  double ready_depth_mean = 0.0;       ///< own-deque depth sampled at pops
  double stage_build_seconds = 0.0;    ///< summed matrix-assembly node time
  double stage_cls_seconds = 0.0;      ///< summed cluster-product node time
  double stage_bsofi_seconds = 0.0;    ///< summed BSOFI node time
  double stage_wrap_seconds = 0.0;     ///< summed seed-walk node time
  double stage_measure_seconds = 0.0;  ///< summed measurement node time

  // --- mixed-precision telemetry (zero for fp64 batches) ------------------
  std::uint32_t mixed_tasks = 0;      ///< tasks attempted in mixed mode
  std::uint32_t mixed_fallbacks = 0;  ///< tasks the gate redid in fp64

  /// Load balance as max/mean busy time; 1.0 is perfect, higher is worse.
  double balance() const {
    return busy_mean_seconds > 0.0 ? busy_max_seconds / busy_mean_seconds
                                   : 1.0;
  }
};

struct MultiGfResult {
  Measurements global;     ///< merged over all tasks, ascending task order
  double seconds = 0.0;    ///< wall time of the parallel region
  /// Dense-kernel flops across all workers and threads during the call: a
  /// delta of the process-wide counter, which is never reset.
  std::uint64_t flops = 0;
  SchedSummary sched;      ///< executor telemetry
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

/// Run Alg. 3: derive the fields and offsets from the seed, run every task
/// through run_fsi_batch (num_ranks workers, omp_threads_per_rank team
/// size), and merge the per-task measurements in task order.
MultiGfResult run_parallel_fsi(const HubbardModel& model,
                               const MultiGfOptions& options);

/// One externally-supplied inversion task for run_fsi_batch.  Unlike
/// run_parallel_fsi — which derives every field and wrapping offset from its
/// batch seed — the field and q here come from the caller (the serve path:
/// each network client ships its own Hubbard-Stratonovich configuration).
struct FsiBatchTask {
  HsField field;     ///< the HS configuration (defines M up to spin)
  index_t q = 0;     ///< wrapping offset in [0, c)
  bool heavy = true; ///< also compute the Rows/Columns passes + SPXX
};

/// Execution knobs of one run_fsi_batch call.
struct FsiBatchOptions {
  int num_workers = 0;           ///< graph workers (0 = OpenMP max threads)
  int omp_threads_per_worker = 0;///< 0 = leave the OpenMP default
  index_t cluster_size = 0;      ///< 0 = divisor of L nearest sqrt(L)
  Schedule schedule = Schedule::WorkStealing;
  /// Scalar precision of the CLS and WRP nodes (FSI_PRECISION env default).
  /// Mixed tasks run the fp32 pipeline and get a per-task gate node between
  /// the wrap fences and the measurement: when selinv::mixed_gate_verdict()
  /// rejects either spin, the node recomputes both spins in fp64 with the
  /// serial selinv::fsi_multi (counted in Counter::MixedFallbacks).  BSOFI
  /// always runs fp64.  Fp64 batches are bit-identical to the pre-precision
  /// engine.
  Precision precision = precision_from_env();
};

/// Execute a batch of externally-supplied tasks through the same task graph
/// as run_parallel_fsi (build -> cluster products -> BSOFI -> seed walks ->
/// measure, one sub-graph per task and spin — a build node in front of
/// selinv::emit_fsi_tasks — all on the persistent sched::Executor pool, so
/// a straggler task's seed walks are stolen by idle workers).  Returns one
/// Measurements per task, in task order; results are bit-identical to
/// running in-process selinv::fsi_multi on the task's two matrices
/// (BlockOps from HubbardModel::b_inverses) + the measurement accumulators,
/// regardless of worker count or steal order (a mixed task whose either
/// spin falls back is fp64 in both).  \p sched, when non-null, receives the
/// run's executor telemetry.
std::vector<Measurements> run_fsi_batch(const HubbardModel& model,
                                        const std::vector<FsiBatchTask>& tasks,
                                        const FsiBatchOptions& options,
                                        SchedSummary* sched = nullptr);

}  // namespace fsi::qmc
