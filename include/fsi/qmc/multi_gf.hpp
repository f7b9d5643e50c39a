#pragma once
/// \file multi_gf.hpp
/// \brief Parallel application of FSI to many Green's functions
/// (paper Alg. 3 / Fig. 5) over the mini-MPI + OpenMP hybrid.
///
/// DQMC needs selected inversions of tens of thousands of Hubbard matrices.
/// The matrices are parameterised by the Hubbard-Stratonovich field, so —
/// exactly as the paper prescribes — the root rank generates the random
/// fields and broadcasts *them* (not the matrices) to the MPI ranks; each
/// rank builds its matrices locally, runs FSI with OpenMP inside, computes
/// local measurement quantities in the OpenMP region, and the root merges
/// the global measurements.
///
/// Task distribution goes through sched::BatchScheduler: every rank is
/// preloaded with the contiguous static share [r*m/R, (r+1)*m/R) and idle
/// ranks steal the back half of a victim's backlog, so heterogeneous batches
/// (see \ref MultiGfOptions::heavy_fraction) balance automatically.  The
/// result is bit-identical regardless of rank count, thread count or steal
/// order: each task derives its wrapping offset q from (seed, task index)
/// alone, accumulates its measurements serially into a per-task buffer, and
/// the root merges the buffers in ascending task order.

#include <cstdint>
#include <vector>

#include "fsi/precision.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/measurements.hpp"

namespace fsi::qmc {

/// How the batch of matrices is spread over the mini-MPI ranks.
enum class Schedule {
  WorkStealing,  ///< stealing on (default; batch scheduler or graph executor)
  Static,        ///< frozen contiguous split — the paper's Alg. 3 baseline
};

/// At which level the batch is decomposed into stealable units.
enum class Granularity {
  Auto,    ///< Fine when the FSI_EXEC env flag (default on) allows it
  Coarse,  ///< one unit per matrix: mini-MPI ranks + BatchScheduler (Alg. 3)
  Fine,    ///< one unit per FSI stage node: matrix assembly, each cluster
           ///< product, BSOFI and each seed walk become task-graph nodes on
           ///< the persistent executor pool, so a straggler matrix's b^2
           ///< seed walks are stolen by idle workers.  Shared-memory only
           ///< (no mini-MPI messaging); bit-identical to Coarse.
};

/// Options of one hybrid run (paper Fig. 9 sweeps ranks x threads with the
/// product fixed at the machine's core count).
struct MultiGfOptions {
  index_t num_matrices = 8;      ///< total Hubbard matrices (per spin pair)
  int num_ranks = 2;             ///< mini-MPI ranks
  int omp_threads_per_rank = 0;  ///< 0 = leave the OpenMP default
  index_t cluster_size = 0;      ///< 0 = divisor of L nearest sqrt(L)
  bool measure_time_dependent = true;
  /// Fraction of the batch (front-loaded) that also computes the Rows /
  /// Columns wrapping passes and SPXX; the rest measures equal-time only.
  /// 1.0 = homogeneous batch; < 1.0 makes the batch skewed — the contiguous
  /// static split then overloads the low ranks, which is exactly the
  /// imbalance work stealing is there to fix.  Ignored (treated as 0) when
  /// measure_time_dependent is false.
  double heavy_fraction = 1.0;
  Schedule schedule = Schedule::WorkStealing;
  Granularity granularity = Granularity::Auto;
  std::uint64_t seed = 99;
};

/// Scheduler telemetry of one run_parallel_fsi call.
struct SchedSummary {
  int workers = 0;                  ///< mini-MPI ranks driving the batch
  std::uint32_t tasks = 0;          ///< matrices scheduled
  std::uint64_t steal_batches = 0;  ///< successful steals across all ranks
  std::uint64_t stolen_tasks = 0;   ///< tasks that migrated via stealing
  double busy_max_seconds = 0.0;    ///< busiest rank's in-task wall time
  double busy_mean_seconds = 0.0;   ///< mean in-task wall time per rank
  std::vector<double> busy_seconds; ///< per-worker in-task wall time

  // --- graph-granularity telemetry (zero in Coarse mode) ------------------
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
  Measurements global;     ///< merged over all ranks, ascending task order
  double seconds = 0.0;    ///< wall time of the parallel region
  std::uint64_t flops = 0; ///< dense-kernel flops across all ranks/threads
  SchedSummary sched;      ///< scheduler telemetry
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

/// Run Alg. 3: broadcast fields, scheduler-driven per-rank FSI + local
/// measurements, deterministic merge on the root.
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

/// Execute a batch of externally-supplied tasks through the same
/// fine-granularity task graph as run_parallel_fsi (build -> cluster
/// products -> BSOFI -> seed walks -> measure, one sub-graph per task and
/// spin — a build node in front of selinv::emit_fsi_tasks — all on the
/// persistent sched::Executor pool, so a straggler task's seed walks are
/// stolen by idle workers).  Returns one Measurements per task, in task
/// order; results are bit-identical to running in-process
/// selinv::fsi_multi on the task's two matrices (BlockOps from
/// HubbardModel::b_inverses) + the measurement accumulators, regardless of
/// worker count or steal order (a mixed task whose either spin falls back
/// is fp64 in both).  \p sched, when
/// non-null, receives the run's scheduler telemetry.
std::vector<Measurements> run_fsi_batch(const HubbardModel& model,
                                        const std::vector<FsiBatchTask>& tasks,
                                        const FsiBatchOptions& options,
                                        SchedSummary* sched = nullptr);

}  // namespace fsi::qmc
