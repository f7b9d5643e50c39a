#include "fsi/selinv/fsi.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::selinv {

using pcyclic::PCyclicMatrix;
using pcyclic::SelectedInversion;
using pcyclic::Selection;

namespace {

/// Meters one FSI stage: opens a trace span and, on destruction, adds the
/// stage's wall time and flop delta to the FsiStats fields it was given.
class StageMeter {
 public:
  StageMeter(const char* span_name, double& seconds, std::uint64_t& flops)
      : span_(span_name), seconds_(seconds), flops_(flops) {}
  StageMeter(const StageMeter&) = delete;
  StageMeter& operator=(const StageMeter&) = delete;
  ~StageMeter() {
    seconds_ += timer_.seconds();
    flops_ += flop_scope_.elapsed();
  }

 private:
  obs::Span span_;
  double& seconds_;
  std::uint64_t& flops_;
  util::WallTimer timer_;
  util::flops::Scope flop_scope_;
};

/// The fp64 block a stage hands on from a block at stage scalar T: a copy
/// for a walk store, the block itself for a finished (owned) cluster
/// product, a promoted copy for an fp32 block.
template <typename M>
dense::Matrix to_fp64(M&& src) {
  if constexpr (std::is_same_v<std::remove_cvref_t<M>, dense::MatrixF>)
    return dense::promoted(src);
  else
    return std::forward<M>(src);
}

}  // namespace

template <typename T>
dense::BasicMatrix<T> cluster_product(const PCyclicMatrix& m, index_t c,
                                      index_t q, index_t i) {
  // Cluster i covers the c consecutive blocks ending at j0 = c(i+1)-q-1:
  //   B~_i = B[j0] B[j0-1] ... B[j0-c+1]  (indices cyclic).
  FSI_OBS_SPAN("cls.cluster");
  const index_t n = m.block_size();
  const index_t j_lo = c * i - q;  // j0 - c + 1
  // At fp32 each factor is demoted on the fly: every B block belongs to
  // exactly one cluster, so nothing is demoted twice and the O(N^2)
  // conversions vanish next to the O(cN^3) products.
  dense::BasicMatrix<T> demoted;
  if constexpr (std::is_same_v<T, float>) demoted = dense::BasicMatrix<T>(n, n);
  auto factor = [&](index_t j) -> dense::BasicConstMatrixView<T> {
    if constexpr (std::is_same_v<T, double>) {
      return m.b(m.wrap(j));
    } else {
      dense::demote(m.b(m.wrap(j)), demoted.view());
      return demoted.view();
    }
  };
  dense::BasicMatrix<T> prod = dense::BasicMatrix<T>::copy_of(factor(j_lo));
  dense::BasicMatrix<T> next(n, n);
  for (index_t t = 1; t < c; ++t) {
    dense::gemm<T>(dense::Trans::No, dense::Trans::No, T(1), factor(j_lo + t),
                   prod, T(0), next);
    std::swap(prod, next);
  }
  return prod;
}

template <typename T>
PCyclicMatrix cluster(const PCyclicMatrix& m, index_t c, index_t q,
                      bool parallel) {
  const index_t l = m.num_blocks();
  FSI_CHECK(c > 0 && l % c == 0, "cluster: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "cluster: q must be in [0, c)");
  const index_t b = l / c;
  const index_t n = m.block_size();

  PCyclicMatrix reduced(n, b);
  // Clusters are data-independent: "iterations for clustering B_i's can be
  // executed in embarrassingly parallel" (paper Sec. II-C).
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (index_t i = 0; i < b; ++i)
    reduced.b_matrix(i) = to_fp64(cluster_product<T>(m, c, q, i));
  return reduced;
}

namespace {

/// Copy the seed block G~(k0, l0) out of the reduced inverse.
template <typename T>
dense::BasicMatrix<T> seed_block(const dense::BasicMatrix<T>& gtilde, index_t n,
                                 index_t k0, index_t l0) {
  return dense::BasicMatrix<T>::copy_of(gtilde.block(k0 * n, l0 * n, n, n));
}

/// Sampled health spot check: verify two stored blocks of a completed
/// Columns/Rows wrap against the defining relation M G = G M = I.
///
/// The Columns pattern stores a *full* block column per selected index, so
/// block row k of M applied to stored column `col` must give
///   G(k, col) - B_k G(k-1, col)       = delta_{k,col} I   (k >= 1)
///   G(0, col) + B_1 G(L-1, col)       = delta_{0,col} I   (corner block)
/// and symmetrically via G M = I for the Rows pattern.  Two probed block
/// rows cost ~4 N^3 flops against the ~3 b^2 c N^3 of the wrap itself
/// (~0.1% at the paper's shape), further divided by the sampling period;
/// the probes sit at walk ends, and a Monte Carlo run's random q moves
/// them across the selection.  Other patterns store no adjacent blocks,
/// so no residual can be formed from stored data alone — they are skipped.
void residual_spot_check(const PCyclicMatrix& m, const SelectedInversion& out,
                         Pattern pattern, const Selection& sel) {
  if (pattern != Pattern::Columns && pattern != Pattern::Rows) return;
  if (!obs::health::should_sample_residual()) return;
  util::WallTimer health_timer;
  const double worst = probe_residual(m, out, pattern, sel);
  obs::health::record_residual(worst);
  obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                            health_timer.seconds());
}

}  // namespace

double probe_residual(const PCyclicMatrix& m, const SelectedInversion& out,
                      Pattern pattern, const Selection& sel) {
  if (pattern != Pattern::Columns && pattern != Pattern::Rows) return -1.0;
  const index_t n = m.block_size();
  const index_t l = m.num_blocks();
  const auto idx = sel.indices();

  double worst = 0.0;
  for (const index_t seed : {index_t{0}, sel.b() / 2}) {
    // In the line of this seed, its down/right walk ends at `last`; the
    // next seed's up/left walk ends one block further on.
    const index_t line = idx[static_cast<std::size_t>(seed)];
    const index_t last = m.wrap(line + sel.c / 2);
    // The probed block row (Columns: links k-1 and k) or column (Rows:
    // links k and k+1).
    const index_t k = (pattern == Pattern::Columns) ? m.wrap(last + 1) : last;
    dense::Matrix r(n, n);
    if (pattern == Pattern::Columns) {
      dense::copy(out.at(k, line), r.view());
      if (k >= 1)
        dense::gemm(dense::Trans::No, dense::Trans::No, -1.0, m.b(k),
                    out.at(k - 1, line), 1.0, r);
      else
        dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, m.b(0),
                    out.at(l - 1, line), 1.0, r);
    } else {
      dense::copy(out.at(line, k), r.view());
      if (k + 1 < l)
        dense::gemm(dense::Trans::No, dense::Trans::No, -1.0,
                    out.at(line, k + 1), m.b(k + 1), 1.0, r);
      else
        dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, out.at(line, 0),
                    m.b(0), 1.0, r);
    }
    if (k == line)  // a diagonal block of G
      for (index_t d = 0; d < n; ++d) r(d, d) -= 1.0;
    worst = std::max(worst, dense::max_abs(r.view()));
  }
  return worst;
}

double reduced_cond1(const PCyclicMatrix& reduced,
                     dense::ConstMatrixView gtilde) {
  double max_b = 0.0;
  for (index_t i = 0; i < reduced.num_blocks(); ++i)
    max_b = std::max(max_b, dense::one_norm(reduced.b(i)));
  return (1.0 + max_b) * dense::one_norm(gtilde);
}

namespace {

/// The process-wide gate cells, env-seeded on first touch.
struct GateCells {
  std::atomic<double> resid;
  std::atomic<double> cond;
  GateCells()
      : resid(obs::env_double("FSI_PRECISION_RESID_MAX",
                              MixedGate{}.resid_max)),
        cond(obs::env_double("FSI_PRECISION_COND_MAX", MixedGate{}.cond_max)) {}
};

GateCells& gate_cells() noexcept {
  static GateCells cells;
  return cells;
}

}  // namespace

MixedGate mixed_gate() noexcept {
  GateCells& g = gate_cells();
  return MixedGate{g.resid.load(std::memory_order_relaxed),
                   g.cond.load(std::memory_order_relaxed)};
}

void set_mixed_gate(const MixedGate& gate) noexcept {
  GateCells& g = gate_cells();
  g.resid.store(gate.resid_max, std::memory_order_relaxed);
  g.cond.store(gate.cond_max, std::memory_order_relaxed);
}

index_t num_wrap_seeds(Pattern pattern, index_t b) {
  switch (pattern) {
    case Pattern::Diagonal:
    case Pattern::SubDiagonal:
    case Pattern::AllDiagonals:
      return b;
    case Pattern::Columns:
    case Pattern::Rows:
      return b * b;
  }
  return 0;
}

template <typename T>
void wrap_seed(const pcyclic::BasicBlockOps<T>& ops,
               const dense::BasicMatrix<T>& gtilde, Pattern pattern,
               const Selection& sel, SelectedInversion& out, index_t seed) {
  FSI_OBS_SPAN("wrp.seed");
  using Block = dense::BasicMatrix<T>;
  const index_t n = ops.block_size();
  const index_t l = ops.num_blocks();
  const index_t b = sel.b();
  const auto idx = sel.indices();
  const index_t up_steps = (sel.c - 1) / 2;
  const index_t down_steps = sel.c / 2;

  switch (pattern) {
    case Pattern::Diagonal: {
      // S1 is exactly the diagonal seeds — no adjacency moves needed.
      const index_t k0 = seed;
      out.slot(idx[k0], idx[k0]) = to_fp64(seed_block(gtilde, n, k0, k0));
      break;
    }
    case Pattern::SubDiagonal: {
      // One rightward move from each diagonal seed (skip k = L-1, whose
      // sub-diagonal neighbour leaves the matrix per the paper's S2).
      const index_t k0 = seed;
      const index_t k = idx[k0];
      if (k == l - 1) break;
      out.slot(k, k + 1) =
          to_fp64(ops.right(k, k, seed_block(gtilde, n, k0, k0)));
      break;
    }
    case Pattern::Columns: {
      // Paper Alg. 2: each of the b^2 seeds fills the c rows around it in
      // its column; two independent walks minimise error accumulation.
      const index_t l0 = seed / b;
      const index_t k0 = seed % b;
      const index_t col = idx[l0];
      const index_t row = idx[k0];
      // Two independent walks from one seed.
      Block cur = seed_block(gtilde, n, k0, l0);
      index_t k = row;
      for (index_t s = 0; s < up_steps; ++s) {
        cur = ops.up(k, col, cur);
        k = ops.matrix().wrap(k - 1);
        out.slot(k, col) = to_fp64(cur);
      }
      cur = seed_block(gtilde, n, k0, l0);
      k = row;
      out.slot(k, col) = to_fp64(cur);
      for (index_t s = 0; s < down_steps; ++s) {
        cur = ops.down(k, col, cur);
        k = ops.matrix().wrap(k + 1);
        out.slot(k, col) = to_fp64(cur);
      }
      break;
    }
    case Pattern::AllDiagonals: {
      // Diagonal walk: G(k+1,k+1) = B_{k+1} G(k,k) B_{k+1}^-1 and its
      // inverse move, composed from one vertical and one horizontal
      // adjacency step each (the "Hirsch wrapping" for equal-time blocks).
      const index_t k0 = seed;
      const index_t row = idx[k0];
      Block cur = seed_block(gtilde, n, k0, k0);
      index_t k = row;
      for (index_t s = 0; s < up_steps; ++s) {
        // up-left: G(k-1, k-1) = B_k^-1 G(k, k) B_k.
        cur = ops.left(ops.matrix().wrap(k - 1), k, ops.up(k, k, cur));
        k = ops.matrix().wrap(k - 1);
        out.slot(k, k) = to_fp64(cur);
      }
      cur = seed_block(gtilde, n, k0, k0);
      k = row;
      out.slot(k, k) = to_fp64(cur);
      for (index_t s = 0; s < down_steps; ++s) {
        // down-right: G(k+1, k+1) = B_{k+1} G(k, k) B_{k+1}^-1.
        cur = ops.right(ops.matrix().wrap(k + 1), k, ops.down(k, k, cur));
        k = ops.matrix().wrap(k + 1);
        out.slot(k, k) = to_fp64(cur);
      }
      break;
    }
    case Pattern::Rows: {
      // Mirror of the column wrap using the horizontal relations (Eqs. 6/7).
      const index_t k0 = seed / b;
      const index_t l0 = seed % b;
      const index_t row = idx[k0];
      const index_t col = idx[l0];
      Block cur = seed_block(gtilde, n, k0, l0);
      index_t cl = col;
      for (index_t s = 0; s < up_steps; ++s) {
        cur = ops.left(row, cl, cur);
        cl = ops.matrix().wrap(cl - 1);
        out.slot(row, cl) = to_fp64(cur);
      }
      cur = seed_block(gtilde, n, k0, l0);
      cl = col;
      out.slot(row, cl) = to_fp64(cur);
      for (index_t s = 0; s < down_steps; ++s) {
        cur = ops.right(row, cl, cur);
        cl = ops.matrix().wrap(cl + 1);
        out.slot(row, cl) = to_fp64(cur);
      }
      break;
    }
  }
}

template <typename T>
SelectedInversion wrap(const pcyclic::BasicBlockOps<T>& ops,
                       const dense::BasicMatrix<T>& gtilde, Pattern pattern,
                       const Selection& sel, bool parallel) {
  const index_t n = ops.block_size();
  const index_t l = ops.num_blocks();
  const index_t b = sel.b();
  FSI_CHECK(gtilde.rows() == b * n && gtilde.cols() == b * n,
            "wrap: reduced inverse has wrong dimensions");
  FSI_CHECK(sel.l_total == l, "wrap: selection does not match the matrix");

  SelectedInversion out(pattern, n, sel);
  const index_t seeds = num_wrap_seeds(pattern, b);
  if (pattern == Pattern::Diagonal) {
    // Plain seed copies — not worth a parallel region.
    for (index_t s = 0; s < seeds; ++s)
      wrap_seed(ops, gtilde, pattern, sel, out, s);
    return out;
  }
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (index_t s = 0; s < seeds; ++s)
    wrap_seed(ops, gtilde, pattern, sel, out, s);
  return out;
}

namespace {

/// Stage 2 for a pipeline at stage scalar T: invert the reduced matrix in
/// fp64 (consuming it: its blocks feed only BSOFI) and leave the walks'
/// starting point in task.gtilde — demoted, with the gate's cond1 taken
/// first, when the walks run in fp32.
template <typename T>
void invert_reduced(PCyclicMatrix reduced, FsiGraphTask<T>& task) {
  dense::Matrix gtilde = bsofi::invert(reduced);
  if constexpr (std::is_same_v<T, double>) {
    task.gtilde = std::move(gtilde);
  } else {
    task.cond1 = reduced_cond1(reduced, gtilde);
    task.gtilde = dense::demoted(gtilde);
  }
}

}  // namespace

template <typename T>
FsiEmit emit_fsi_tasks(sched::TaskGraph& graph, FsiGraphTask<T>& task,
                       int owner_hint, std::optional<sched::NodeId> after) {
  FSI_CHECK(!task.patterns.empty(), "emit_fsi_tasks: need at least one pattern");
  if (!after) {
    FSI_CHECK(task.m != nullptr && task.ops != nullptr,
              "emit_fsi_tasks: task needs a matrix and BlockOps");
    FSI_CHECK(&task.ops->matrix() == task.m,
              "emit_fsi_tasks: BlockOps must wrap the same matrix");
    FSI_CHECK(task.sel.l_total == task.m->num_blocks(),
              "emit_fsi_tasks: selection does not match the matrix");
  }
  const index_t c = task.sel.c;
  const index_t q = task.sel.q;
  FSI_CHECK(c > 0 && task.sel.l_total % c == 0,
            "emit_fsi_tasks: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "emit_fsi_tasks: q must be in [0, c)");
  const index_t b = task.sel.b();

  task.cls_blocks.assign(static_cast<std::size_t>(b), dense::Matrix());
  task.results.clear();
  task.results.reserve(task.patterns.size());

  FsiGraphTask<T>* t = &task;
  FsiEmit emit;
  std::vector<sched::NodeId> cls_nodes;
  cls_nodes.reserve(static_cast<std::size_t>(b));
  for (index_t i = 0; i < b; ++i) {
    const sched::NodeId id = graph.add_node(
        [t, c, q, i](int) {
          FSI_OBS_SPAN("fsi.cls");
          t->cls_blocks[static_cast<std::size_t>(i)] =
              to_fp64(cluster_product<T>(*t->m, c, q, i));
        },
        sched::Stage::Cls, owner_hint);
    if (after) graph.add_edge(*after, id);
    cls_nodes.push_back(id);
  }
  emit.bsofi = graph.add_node(
      [t](int) {
        FSI_OBS_SPAN("fsi.bsofi");
        t->flops_at_cls_end = util::flops::total();
        invert_reduced(PCyclicMatrix(std::move(t->cls_blocks)), *t);
        for (Pattern p : t->patterns)
          t->results.emplace_back(p, t->m->block_size(), t->sel);
        t->flops_at_bsofi_end = util::flops::total();
      },
      sched::Stage::Bsofi, owner_hint);
  for (sched::NodeId id : cls_nodes) graph.add_edge(id, emit.bsofi);

  for (std::size_t p = 0; p < task.patterns.size(); ++p) {
    const Pattern pat = task.patterns[p];
    const index_t seeds = num_wrap_seeds(pat, b);
    for (index_t s = 0; s < seeds; ++s) {
      const sched::NodeId w = graph.add_node(
          [t, p, pat, s](int) {
            FSI_OBS_SPAN("fsi.wrap");
            wrap_seed(*t->ops, t->gtilde, pat, t->sel, t->results[p], s);
          },
          sched::Stage::Wrap, owner_hint);
      graph.add_edge(emit.bsofi, w);
      emit.wrap_nodes.push_back(w);
    }
  }
  return emit;
}

const char* mixed_gate_verdict(const FsiGraphTask<float>& task,
                               const MixedGate& gate) {
  FSI_OBS_SPAN("fsi.mixed_gate");
  // cond1 first: when the reduced matrix already eats most of fp32's ~7
  // digits, the walks cannot have recovered.
  if (!(task.cond1 <= gate.cond_max)) return "cond1";
  if (!dense::all_finite(task.gtilde.view())) return "nonfinite";
  // Residual probes on every checkable pattern (unconditionally — mixed
  // runs always pay the ~4 N^3 probe; it is what licenses the fp32 result).
  util::WallTimer health_timer;
  const char* reason = nullptr;
  std::vector<double> probed;
  for (const SelectedInversion& out : task.results) {
    const double r = probe_residual(*task.m, out, out.pattern(), task.sel);
    if (r < 0.0) continue;  // pattern stores no adjacent blocks
    if (!(r <= gate.resid_max)) {  // catches NaN too
      reason = "residual";
      break;
    }
    probed.push_back(r);
  }
  // Only an accepted result's residuals describe an answer the caller
  // gets; a rejected one is reported by the fallback counter and WARN, and
  // the fp64 rerun takes its own spot check.
  if (reason == nullptr)
    for (const double r : probed) obs::health::record_residual(r);
  obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                            health_timer.seconds());
  return reason;
}

namespace {

/// Resolve FsiOptions::Exec against the FSI_EXEC env flag.
bool use_graph(const FsiOptions& opts) {
  switch (opts.exec) {
    case FsiOptions::Exec::Graph: return true;
    case FsiOptions::Exec::OmpLoops: return false;
    case FsiOptions::Exec::Auto: break;
  }
  // coarse_parallel == false is the paper's pure-MKL comparator: serial
  // outer loops by definition, so the graph path never applies.
  return opts.coarse_parallel && obs::env_flag("FSI_EXEC", true);
}

/// Graph workers for a standalone fsi() call: FSI_EXEC_WORKERS, or the
/// caller's OMP team size (which a mini-MPI rank body has already had set
/// to its per-rank allotment — nested graphs stay within their share).
int graph_workers() {
  const long w = obs::env_long("FSI_EXEC_WORKERS", 0);
  return w > 0 ? static_cast<int>(w) : omp_get_max_threads();
}

/// The FSI pipeline at stage scalar T, in the execution shape opts.exec
/// selects; both shapes run the same serial kernel sequences on disjoint
/// outputs, so their results are bit-identical.  Stage times and flops are
/// added to \p stats: in graph mode from per-stage busy sums (span sums —
/// overlapped stages do not double-count wall time) and the BSOFI node's
/// flop fences, in loop mode from per-stage meters.
template <typename T>
FsiGraphTask<T> run_stages(const PCyclicMatrix& m,
                           const pcyclic::BasicBlockOps<T>& ops,
                           const std::vector<Pattern>& patterns,
                           const Selection& sel, const FsiOptions& opts,
                           FsiStats& stats) {
  FsiGraphTask<T> task;
  task.m = &m;
  task.ops = &ops;
  task.sel = sel;
  task.patterns = patterns;

  if (use_graph(opts)) {
    const std::uint64_t f0 = util::flops::total();
    sched::TaskGraph graph;
    emit_fsi_tasks(graph, task);
    const sched::GraphStats gs = sched::Executor::instance().run_graph(
        graph, graph_workers(), sched::ExecOptions::from_env());
    const std::uint64_t f_end = util::flops::total();
    stats.seconds_cls += gs.of(sched::Stage::Cls).busy_seconds;
    stats.seconds_bsofi += gs.of(sched::Stage::Bsofi).busy_seconds;
    stats.seconds_wrap += gs.of(sched::Stage::Wrap).busy_seconds;
    stats.flops_cls += task.flops_at_cls_end - f0;
    stats.flops_bsofi += task.flops_at_bsofi_end - task.flops_at_cls_end;
    stats.flops_wrap += f_end - task.flops_at_bsofi_end;
    return task;
  }

  PCyclicMatrix reduced = [&] {  // Stage 1: CLS.
    StageMeter meter("fsi.cls", stats.seconds_cls, stats.flops_cls);
    return cluster<T>(m, sel.c, sel.q, opts.coarse_parallel);
  }();
  {  // Stage 2: BSOFI.
    StageMeter meter("fsi.bsofi", stats.seconds_bsofi, stats.flops_bsofi);
    invert_reduced(std::move(reduced), task);
  }
  {  // Stage 3: WRP.
    StageMeter meter("fsi.wrap", stats.seconds_wrap, stats.flops_wrap);
    for (Pattern p : patterns)
      task.results.push_back(
          wrap(ops, task.gtilde, p, sel, opts.coarse_parallel));
  }
  return task;
}

/// A Mixed call's fp32 attempt: the pipeline at T = float behind the mixed
/// gate.  True = \p out holds the accepted result.  False = the gate
/// tripped or an fp32 stage threw (e.g. a block singular at fp32 that is
/// fine at fp64): the fallback is counted and WARN-logged, and \p stats is
/// reset (mixed_fallback flagged) for the caller's fp64 run.
bool run_mixed(const PCyclicMatrix& m, const std::vector<Pattern>& patterns,
               const Selection& sel, const FsiOptions& opts, FsiStats& stats,
               std::vector<SelectedInversion>& out) {
  obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
  const MixedGate gate = mixed_gate();
  std::string reason;
  try {
    // The fp32 BlockOps feeds only the walks; count it as wrap work, like
    // the fp64 convenience overload of fsi() counts BlockOps.
    std::optional<pcyclic::BlockOpsF> ops;
    {
      StageMeter meter("fsi.blockops", stats.seconds_wrap, stats.flops_wrap);
      ops.emplace(m);
    }
    FsiGraphTask<float> task = run_stages(m, *ops, patterns, sel, opts, stats);
    const char* verdict = mixed_gate_verdict(task, gate);
    if (verdict == nullptr) {
      out = std::move(task.results);
      stats.precision_used = Precision::Mixed;
      return true;
    }
    reason = verdict;
  } catch (const util::CheckError& e) {
    reason = e.what();
  }
  obs::metrics::add(obs::metrics::Counter::MixedFallbacks, 1);
  FSI_LOG_WARN("fsi.mixed_fallback", {"reason", reason},
               {"resid_max", gate.resid_max}, {"cond_max", gate.cond_max});
  const index_t q = stats.q;
  stats = FsiStats{};
  stats.q = q;
  stats.mixed_fallback = true;
  return false;
}

}  // namespace

SelectedInversion fsi(const PCyclicMatrix& m, const pcyclic::BlockOps& ops,
                      const FsiOptions& opts, util::Rng& rng, FsiStats* stats) {
  return std::move(fsi_multi(m, ops, {opts.pattern}, opts, rng, stats).front());
}

SelectedInversion fsi(const PCyclicMatrix& m, const FsiOptions& opts,
                      util::Rng& rng, FsiStats* stats) {
  // BlockOps inversion feeds only the wrapping moves; attribute it there.
  double ops_seconds = 0.0;
  std::uint64_t ops_f = 0;
  std::unique_ptr<pcyclic::BlockOps> ops;
  {
    StageMeter meter("fsi.blockops", ops_seconds, ops_f);
    ops = std::make_unique<pcyclic::BlockOps>(m);
  }

  FsiStats local;
  SelectedInversion out = fsi(m, *ops, opts, rng, &local);
  local.seconds_wrap += ops_seconds;
  local.flops_wrap += ops_f;
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<SelectedInversion> fsi_multi(const PCyclicMatrix& m,
                                         const pcyclic::BlockOps& ops,
                                         const std::vector<Pattern>& patterns,
                                         const FsiOptions& opts, util::Rng& rng,
                                         FsiStats* stats) {
  FSI_CHECK(&ops.matrix() == &m, "fsi_multi: BlockOps must wrap the same matrix");
  FSI_CHECK(!patterns.empty(), "fsi_multi: need at least one pattern");
  const index_t c = opts.c;
  const index_t q =
      (opts.q >= 0) ? opts.q : static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
  Selection sel(m.num_blocks(), c, q);

  FsiStats local;
  local.q = q;
  std::vector<SelectedInversion> out;
  if (opts.precision != Precision::Mixed ||
      !run_mixed(m, patterns, sel, opts, local, out)) {
    FsiGraphTask<double> task = run_stages(m, ops, patterns, sel, opts, local);
    for (std::size_t i = 0; i < patterns.size(); ++i)
      residual_spot_check(m, task.results[i], patterns[i], sel);
    out = std::move(task.results);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

dense::Matrix equal_time_block(const PCyclicMatrix& m, index_t k, index_t c) {
  FSI_OBS_SPAN("fsi.equal_time_block");
  const index_t l = m.num_blocks();
  FSI_CHECK(k >= 0 && k < l, "equal_time_block: block index out of range");
  FSI_CHECK(c > 0 && l % c == 0, "equal_time_block: c must divide L");
  // Choose q so that k is a selected (seed) index: (k + q + 1) % c == 0.
  const index_t q = m.wrap(-(k + 1)) % c;
  Selection sel(l, c, q);
  FSI_ASSERT(sel.contains(k));
  // Seed position of k among the selected indices.
  const index_t k0 = (k + q + 1) / c - 1;

  const bsofi::Bsofi factor(cluster(m, c, q));
  const dense::Matrix row = factor.inverse_block_row(k0);
  const index_t n = m.block_size();
  return dense::Matrix::copy_of(row.block(0, k0 * n, n, n));
}

double ComplexityModel::cls_flops() const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  return 2.0 * b() * (static_cast<double>(c) - 1.0) * n3;
}

double ComplexityModel::bsofi_flops() const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  return 7.0 * static_cast<double>(b()) * b() * n3;
}

double ComplexityModel::wrap_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return 0.0;  // the seeds are the pattern
    case Pattern::SubDiagonal:
      return 2.0 * bd * n3;  // one adjacency move per seed
    case Pattern::Columns:
    case Pattern::Rows:
      // 3(bL - b^2)N^3 with L = bc.
      return 3.0 * (bd * (bd * cd) - bd * bd) * n3;
    case Pattern::AllDiagonals:
      return 4.0 * bd * (cd - 1.0) * n3;  // composed two-move diagonal steps
  }
  return 0.0;
}

double ComplexityModel::fsi_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return (2.0 * (cd - 1.0) + 7.0 * bd) * bd * n3;
    case Pattern::SubDiagonal:
      return (2.0 * cd + 7.0 * bd) * bd * n3;
    case Pattern::Columns:
    case Pattern::Rows:
      return 3.0 * bd * bd * cd * n3;
    case Pattern::AllDiagonals:
      // CLS + BSOFI as for S1, plus ~4 N^3 per composed diagonal move.
      return (2.0 * (cd - 1.0) + 7.0 * bd) * bd * n3 +
             4.0 * bd * (cd - 1.0) * n3;
  }
  return 0.0;
}

double ComplexityModel::explicit_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return 2.0 * bd * bd * cd * n3;
    case Pattern::SubDiagonal:
      return 4.0 * bd * bd * cd * n3;
    case Pattern::Columns:
    case Pattern::Rows:
      return bd * bd * bd * cd * cd * n3;
    case Pattern::AllDiagonals:
      // One W_k chain + inverse per diagonal block, L of them.
      return 2.0 * bd * bd * cd * cd * n3;
  }
  return 0.0;
}

// The two stage scalars: double for the default pipeline, float for the
// error-tolerant stages of a Mixed run.
template dense::Matrix cluster_product<double>(const PCyclicMatrix&, index_t,
                                               index_t, index_t);
template dense::MatrixF cluster_product<float>(const PCyclicMatrix&, index_t,
                                               index_t, index_t);
template PCyclicMatrix cluster<double>(const PCyclicMatrix&, index_t, index_t,
                                       bool);
template PCyclicMatrix cluster<float>(const PCyclicMatrix&, index_t, index_t,
                                      bool);
template void wrap_seed<double>(const pcyclic::BlockOps&, const dense::Matrix&,
                                Pattern, const Selection&, SelectedInversion&,
                                index_t);
template void wrap_seed<float>(const pcyclic::BlockOpsF&, const dense::MatrixF&,
                               Pattern, const Selection&, SelectedInversion&,
                               index_t);
template SelectedInversion wrap<double>(const pcyclic::BlockOps&,
                                        const dense::Matrix&, Pattern,
                                        const Selection&, bool);
template SelectedInversion wrap<float>(const pcyclic::BlockOpsF&,
                                       const dense::MatrixF&, Pattern,
                                       const Selection&, bool);
template FsiEmit emit_fsi_tasks<double>(sched::TaskGraph&, FsiGraphTask<double>&,
                                        int, std::optional<sched::NodeId>);
template FsiEmit emit_fsi_tasks<float>(sched::TaskGraph&, FsiGraphTask<float>&,
                                       int, std::optional<sched::NodeId>);

}  // namespace fsi::selinv
