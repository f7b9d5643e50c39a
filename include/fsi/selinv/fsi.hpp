#pragma once
/// \file fsi.hpp
/// \brief The Fast Selected Inversion algorithm (paper Alg. 1) — the
/// primary contribution of the reproduced paper.
///
/// FSI computes a selected inversion S of a block p-cyclic matrix M in three
/// stages:
///   1. CLS  — factor-of-c block cyclic reduction: cluster the L blocks into
///             b = L/c products of c consecutive B's (cost 2b(c-1)N^3,
///             embarrassingly parallel over clusters);
///   2. BSOFI — stable structured-orthogonal inversion of the reduced b-block
///             p-cyclic matrix (cost ~7b^2 N^3);
///   3. WRP  — wrapping (paper Alg. 2): the b^2 blocks of the reduced inverse
///             are exact blocks of G (Eq. 8, G~_{k0,l0} = G_{c k0-q, c l0-q});
///             use them as seeds and the adjacency relations to grow the
///             requested pattern (cost 3(bL - b^2)N^3, parallel over seeds).
///
/// The random offset q (uniform in [0, c)) shifts which blocks are selected
/// so that, across many Green's functions in a Monte Carlo run, all of G is
/// sampled uniformly.

#include <cstdint>
#include <optional>
#include <vector>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/patterns.hpp"
#include "fsi/pcyclic/pcyclic.hpp"
#include "fsi/precision.hpp"
#include "fsi/sched/task_graph.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::selinv {

using dense::index_t;
using pcyclic::Pattern;

/// FSI parameters.
struct FsiOptions {
  /// Cluster size c (must divide L).  The paper recommends c ~ sqrt(L):
  /// larger c reduces more but loses precision to round-off in the chain
  /// products (see the stability ablation bench).
  index_t c = 10;
  /// Offset q in [0, c), or -1 to draw it uniformly (paper default).
  index_t q = -1;
  /// Which blocks of G to compute.
  Pattern pattern = Pattern::Columns;
  /// Coarse-grain OpenMP parallelism over clusters (CLS) and seeds (WRP).
  /// true  = the paper's "FSI with OpenMP" mode;
  /// false = the paper's "pure multi-threaded MKL" comparator (Figs. 8
  ///         bottom, 10, 11): serial outer loops, threaded kernels only.
  bool coarse_parallel = true;
  /// How the stage parallelism is executed.
  ///   Auto     — Graph when coarse_parallel, else OmpLoops;
  ///   Graph    — decompose into a dependency-aware task graph run on the
  ///              persistent executor pool (cluster products, BSOFI and
  ///              seed walks become stealable nodes);
  ///   OmpLoops — flat OpenMP loops per stage (the pre-executor behaviour,
  ///              kept as an A/B baseline; bit-identical results).
  /// Note: coarse_parallel == false always executes serial loops — it is
  /// the paper's pure-MKL comparator and must stay loop-shaped.
  enum class Exec { Auto, Graph, OmpLoops };
  Exec exec = Exec::Auto;
  /// Scalar precision of the error-tolerant stages.  Fp64 (the default
  /// unless FSI_PRECISION overrides it) is bit-identical to the historic
  /// pipeline.  Mixed runs the same stage code at T = float for CLS cluster
  /// products and WRP seed walks (BSOFI stays fp64), health-gates the result
  /// with mixed_gate_verdict(), and reruns in fp64 when the gate trips — see
  /// docs/precision.md.  Mixed runs take the same execution shape (graph or
  /// loops) as fp64 ones, with bit-identical results across shapes.
  Precision precision = precision_from_env();
};

/// Per-stage timings and flop counts of one FSI run (for the Fig. 8/10
/// performance profiles).
struct FsiStats {
  double seconds_cls = 0.0;
  double seconds_bsofi = 0.0;
  double seconds_wrap = 0.0;
  std::uint64_t flops_cls = 0;
  std::uint64_t flops_bsofi = 0;
  std::uint64_t flops_wrap = 0;
  index_t q = 0;  ///< the offset actually used
  /// Precision the returned result was actually computed at: Mixed runs
  /// that trip the health gate report Fp64 here (and set mixed_fallback).
  Precision precision_used = Precision::Fp64;
  bool mixed_fallback = false;  ///< a mixed attempt was redone in fp64

  double seconds_total() const {
    return seconds_cls + seconds_bsofi + seconds_wrap;
  }
  std::uint64_t flops_total() const {
    return flops_cls + flops_bsofi + flops_wrap;
  }
};

// The stages are templates on the stage scalar T — double for the default
// pipeline, float for the error-tolerant stages of a Mixed run — and are
// instantiated for exactly those two.  Whatever T is, what a stage hands on
// is fp64: fp32 cluster products are promoted before BSOFI and fp32 walk
// blocks are promoted as they are stored, so downstream code never sees T.

/// Stage 1 (CLS): factor-of-c block cyclic reduction.  Returns the reduced
/// b-block p-cyclic matrix whose blocks are
///   B~_{i} = B_{j0} B_{j0-1} ... B_{j0-c+1},  j0 = c(i+1) - q - 1 (0-based),
/// cyclic in the block index.  Cluster products run in parallel (OpenMP).
template <typename T = double>
pcyclic::PCyclicMatrix cluster(const pcyclic::PCyclicMatrix& m, index_t c,
                               index_t q, bool parallel = true);

/// One cluster product B~_i at scalar T — the body of one CLS loop
/// iteration / graph node.  At T = float each B block is demoted on the fly
/// (O(N^2) against the O(cN^3) chain).  Safe to call concurrently for
/// distinct \p i.
template <typename T = double>
dense::BasicMatrix<T> cluster_product(const pcyclic::PCyclicMatrix& m,
                                      index_t c, index_t q, index_t i);

/// Number of independent seed walks of one wrapping stage: b for the
/// diagonal-family patterns, b^2 for Columns/Rows (paper Alg. 2).
index_t num_wrap_seeds(Pattern pattern, index_t b);

/// One seed walk — the body of one WRP loop iteration / graph node.  Grows
/// the blocks reachable from linearised seed index \p seed (Columns:
/// seed = l0*b + k0; Rows: seed = k0*b + l0; diagonal family: seed = k0)
/// into \p out, walking at scalar T from the reduced inverse \p gtilde
/// (demoted for T = float) and storing fp64 blocks.  Distinct seeds write
/// disjoint slots, so concurrent walks need no locking.
template <typename T>
void wrap_seed(const pcyclic::BasicBlockOps<T>& ops,
               const dense::BasicMatrix<T>& gtilde, Pattern pattern,
               const pcyclic::Selection& sel, pcyclic::SelectedInversion& out,
               index_t seed);

/// Stage 3 (WRP): grow the selected inversion from the reduced inverse
/// \p gtilde (a dense bN x bN matrix, as produced by bsofi::invert).
/// Seeds are processed in parallel (OpenMP); each seed walks
/// floor((c-1)/2) steps one way and floor(c/2) the other so consecutive
/// seeds tile the pattern exactly (paper Alg. 2).
template <typename T>
pcyclic::SelectedInversion wrap(const pcyclic::BasicBlockOps<T>& ops,
                                const dense::BasicMatrix<T>& gtilde,
                                Pattern pattern, const pcyclic::Selection& sel,
                                bool parallel = true);

// ---------------------------------------------------------------------------
// Mixed-precision health gate.

/// Acceptance thresholds of one mixed run.  A run falls back to fp64 when
/// the probed residual exceeds resid_max, when the reduced matrix's cond1
/// estimate exceeds cond_max, or when any fp32 stage produced non-finite
/// values.  Defaults come from FSI_PRECISION_RESID_MAX (1e-3, matching the
/// health layer's resid_fail) and FSI_PRECISION_COND_MAX (1e8: past that,
/// fp32's ~7 significant digits are spent on conditioning alone).
struct MixedGate {
  double resid_max = 1e-3;
  double cond_max = 1e8;
};

/// The process-wide gate (env-seeded once, then runtime-settable — tests
/// force fallbacks by lowering resid_max to 0).
MixedGate mixed_gate() noexcept;
void set_mixed_gate(const MixedGate& gate) noexcept;

/// Worst probed residual ||(M G_sel - I) block||_max over two block probes
/// — the check the mixed gate runs on every mixed run and the fp64 health
/// spot check samples.  Each probe sits where two seed walks meet (in the
/// line of seed 0 and of seed b/2, between the last block of that seed's
/// down/right walk and the first of the next seed's up/left walk): walk
/// ends carry the most accumulated round-off.  The positions depend only
/// on the selection, so identical inputs always probe identical blocks.
/// Returns -1 for patterns that store no adjacent blocks (no residual can
/// be formed from stored data); the gate then relies on the cond1 bound.
double probe_residual(const pcyclic::PCyclicMatrix& m,
                      const pcyclic::SelectedInversion& out, Pattern pattern,
                      const pcyclic::Selection& sel);

/// cond1 of the reduced matrix from its blocks and explicit inverse:
/// (1 + max_i ||B~_i||_1) ||G~||_1 (exact 1-norm identity for p-cyclic
/// normal form).  O((bN)^2) — the mixed gate's second input.
double reduced_cond1(const pcyclic::PCyclicMatrix& reduced,
                     dense::ConstMatrixView gtilde);

/// The full FSI algorithm (paper Alg. 1): fsi_multi with the single
/// pattern opts.pattern.  \p rng supplies the random q when opts.q < 0.
/// \p stats, when non-null, receives per-stage times/flops.  Prebuilt
/// \p ops must wrap the same matrix \p m.
pcyclic::SelectedInversion fsi(const pcyclic::PCyclicMatrix& m,
                               const pcyclic::BlockOps& ops,
                               const FsiOptions& opts, util::Rng& rng,
                               FsiStats* stats = nullptr);

/// Convenience overload that builds the BlockOps internally (its
/// inversion time is attributed to the wrapping stage, which is the
/// only consumer).
pcyclic::SelectedInversion fsi(const pcyclic::PCyclicMatrix& m,
                               const FsiOptions& opts, util::Rng& rng,
                               FsiStats* stats = nullptr);

/// Multi-pattern FSI: run CLS + BSOFI *once* and wrap several patterns from
/// the shared reduced inverse — the DQMC measurement workload (all
/// diagonals + block rows + block columns per Green's function, Fig. 10)
/// without re-reducing per pattern.  All patterns share the same q.
/// Results are returned in the order of \p patterns.  Every call runs one
/// stage pipeline, templated on the stage scalar, as a task graph or as
/// OpenMP loops (FsiOptions::exec); a Mixed call runs it at float (an fp32
/// BlockOps that demotes \p ops' inverses, counted as wrap work), applies
/// mixed_gate_verdict(), and on a trip reruns it at double.
std::vector<pcyclic::SelectedInversion> fsi_multi(
    const pcyclic::PCyclicMatrix& m, const pcyclic::BlockOps& ops,
    const std::vector<Pattern>& patterns, const FsiOptions& opts,
    util::Rng& rng, FsiStats* stats = nullptr);

/// Storage of one FSI pipeline at stage scalar \p T, decomposed into graph
/// nodes by emit_fsi_tasks (or filled stage by stage by the loop driver).
/// The caller owns this object and must keep it (and the referenced
/// matrix/ops) alive until the graph has run; node bodies write disjoint
/// parts of it:
///   - cluster node i writes cls_blocks[i] (promoted to fp64);
///   - the BSOFI node assembles the reduced matrix from cls_blocks
///     (freeing them once inverted), writes gtilde, cond1 (T = float
///     only), the empty results and the stage flop fences;
///   - wrap node (p, seed) writes disjoint slots of results[p].
/// After the run the caller harvests results; gtilde is freed with the
/// task, or earlier by assigning {} to it.
template <typename T>
struct FsiGraphTask {
  const pcyclic::PCyclicMatrix* m = nullptr;
  const pcyclic::BasicBlockOps<T>* ops = nullptr;
  pcyclic::Selection sel{1, 1, 0};
  std::vector<Pattern> patterns;

  std::vector<dense::Matrix> cls_blocks;  ///< filled by CLS nodes
  /// The reduced inverse at stage scalar T — what the walks start from.
  /// BSOFI always runs fp64; for T = float the node demotes its result.
  dense::BasicMatrix<T> gtilde;
  /// reduced_cond1 of the fp64 reduced system, for the mixed gate (T = float).
  double cond1 = 0.0;
  std::vector<pcyclic::SelectedInversion> results;  ///< one per pattern

  /// Global flop-counter fences recorded by the BSOFI node at entry/exit.
  /// Dependencies order the stages inside one graph, so for a lone FSI run
  /// these attribute flops per stage exactly (same external-concurrency
  /// caveat as the loop-mode flop scopes).
  std::uint64_t flops_at_cls_end = 0;
  std::uint64_t flops_at_bsofi_end = 0;
};

/// Node ids of one emitted FSI, for wiring cross-task dependencies (e.g. a
/// measurement node that needs every wrap walk of a task).
struct FsiEmit {
  sched::NodeId bsofi = 0;
  std::vector<sched::NodeId> wrap_nodes;
};

/// Decompose one FSI into graph nodes at the task's stage scalar: b
/// cluster-product nodes, one BSOFI node depending on them, and one node
/// per wrap seed walk (per pattern) depending on BSOFI.  \p task must have
/// sel/patterns set, and m/ops unless \p after is given: then every
/// cluster node depends on node \p after, which must set task.m and
/// task.ops (qmc::run_fsi_batch's matrix-assembly node).  All nodes carry
/// \p owner_hint, so with stealing disabled an entire task runs on its
/// statically assigned worker.
template <typename T>
FsiEmit emit_fsi_tasks(sched::TaskGraph& graph, FsiGraphTask<T>& task,
                       int owner_hint = 0,
                       std::optional<sched::NodeId> after = std::nullopt);

/// The mixed gate's verdict on a finished fp32-stage FSI (graph or loops):
/// nullptr when \p gate accepts it, else the first failing check —
/// "cond1" (task.cond1 above cond_max), "nonfinite" (NaN/Inf in the demoted
/// reduced inverse) or "residual" (a probe_residual of a stored pattern
/// above resid_max, or NaN).  The probed residuals of an accepted result
/// stream into the health monitor; a rejected one's do not, since the
/// caller gets the fp64 fallback's answer instead.  fsi_multi and
/// qmc::run_fsi_batch's per-task gate node both decide through this one
/// function.
const char* mixed_gate_verdict(const FsiGraphTask<float>& task,
                               const MixedGate& gate);

/// Closed-form flop counts from the paper's Sec. II-C complexity table,
/// used by the complexity bench to compare measured vs predicted.
struct ComplexityModel {
  index_t n_block, l_total, c;
  index_t b() const { return l_total / c; }
  /// Per-stage flop predictions (paper Sec. II-C): CLS 2b(c-1)N^3,
  /// BSOFI 7b^2N^3, WRP 3(bL-b^2)N^3 for the column/row patterns.
  /// The obs report layer joins these against measured stage times.
  double cls_flops() const;
  double bsofi_flops() const;
  double wrap_flops(Pattern pattern) const;
  /// FSI flops for the pattern (paper: [2(c-1)+7b]bN^3, [2c+7b]bN^3, 3b^2cN^3).
  double fsi_flops(Pattern pattern) const;
  /// Explicit-form flops (paper: 2b^2cN^3, 4b^2cN^3, b^3c^2N^3).
  double explicit_flops(Pattern pattern) const;
};

}  // namespace fsi::selinv
