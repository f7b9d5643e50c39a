#pragma once
/// \file greens.hpp
/// \brief Equal-time Green's function engine for the Metropolis sweep.
///
/// During a DQMC sweep (paper Alg. 4) the Metropolis ratio for flipping
/// h(l, i) needs the equal-time Green's function "at slice l":
///   G_l = (I + A(l-1))^-1,  A(k) = B_k B_{k-1} ... B_{k+1},
/// which is exactly the diagonal block G(l-1, l-1) of the block p-cyclic
/// inverse.  The engine maintains G_l across the sweep with three O(N^2..3)
/// primitives:
///   - flip_ratio:  r_sigma = 1 + alpha (1 - G(i, i)),
///                  alpha = e^{-2 sigma nu h(l,i)} - 1;
///   - apply_flip:  rank-1 Sherman-Morrison update
///                  G <- G - (alpha/r) (e_i - G e_i)(e_i^T G);
///   - advance:     wrap to the next slice, G <- B_l G B_l^-1.
/// Round-off accumulates across wraps and rank-1 updates, so the engine
/// periodically *recomputes* G from scratch with the same stabilised
/// clustered scheme FSI uses (Hirsch's block cyclic reduction idea):
/// cluster products of c consecutive B's with a QR re-orthogonalisation
/// between clusters, then (I + QR)^-1 = (Q^T + R)^-1 Q^T.

#include "fsi/dense/matrix.hpp"
#include "fsi/qmc/hubbard.hpp"

namespace fsi::qmc {

/// How EqualTimeGreens recomputes G from scratch at stabilisation points.
enum class RecomputeMethod {
  QrAccumulate,  ///< clustered QR-accumulated chain product (default)
  Udt,           ///< fsi::stab UDT chain + scale-separated inversion — the
                 ///< large-beta path; accurate where QrAccumulate's wrap
                 ///< drift blows through the obs::health budget
};

/// Interpret one FSI_STAB value (case-insensitive): nullptr, "", "naive"
/// or "qr" select QrAccumulate; "udt" or "asvqrd" select Udt.  Anything else
/// throws util::CheckError naming the value and the accepted spellings —
/// silently falling back would un-stabilise a large-beta run.  Exposed
/// apart from the cached reader so tests can exercise the fail-loud path
/// without mutating the environment.
RecomputeMethod recompute_method_from_env_value(const char* value);

/// The recompute method selected by the FSI_STAB environment variable, read
/// once and cached: QrAccumulate when unset, so default runs stay
/// bit-identical to the pre-stab pipeline.  Throws util::CheckError on an
/// unparsable value (retried on the next call, so a throwing first read
/// does not poison the cache).
RecomputeMethod default_recompute_method();

/// Equal-time Green's function for one spin species.
///
/// Optionally uses *delayed updates* (the optimisation lineage of the
/// paper's ref. [23], Tomas et al. IPDPS 2012): accepted flips are
/// accumulated as rank-1 pairs U W^T and applied to G in one Level-3 GEMM
/// once `delay_depth` of them have piled up, trading k rank-1 GERs
/// (memory-bound) for one GEMM (compute-bound).  delay_depth = 0 applies
/// every update immediately (the classic algorithm).
class EqualTimeGreens {
 public:
  /// \p cluster_size: c of the stabilised recompute (c ~ sqrt(L) as in FSI).
  /// \p wrap_interval: slices between stabilised recomputes.
  /// \p delay_depth: rank-1 updates accumulated before the GEMM flush.
  EqualTimeGreens(const HubbardModel& model, const HsField& field, Spin spin,
                  index_t cluster_size, index_t wrap_interval = 8,
                  index_t delay_depth = 0,
                  RecomputeMethod method = default_recompute_method());

  /// Slice whose updates this G serves (the l of G_l above).
  index_t slice() const { return slice_; }
  Spin spin() const { return spin_; }
  /// The current Green's function (flushes pending delayed updates).
  const Matrix& g() const {
    flush_delayed();
    return g_;
  }
  index_t delay_depth() const { return delay_depth_; }
  /// Pending (unflushed) delayed updates — diagnostics/tests.
  index_t pending_updates() const { return pending_; }

  /// alpha_sigma for flipping h(slice, site) at the current field value.
  double flip_alpha(index_t site) const;
  /// Metropolis ratio r_sigma = 1 + alpha (1 - G(i, i)).
  double flip_ratio(index_t site, double alpha) const;
  /// Rank-1 update of G after the flip is accepted.  Must be called with
  /// the SAME alpha/ratio used for the decision, BEFORE the field is
  /// actually flipped by the caller.
  void apply_flip(index_t site, double alpha, double ratio);

  /// Move to the next slice: G <- B_l G B_l^-1 (uses the *current* field,
  /// i.e. after all accepted flips of slice l).  Triggers a stabilised
  /// recompute every wrap_interval wraps.
  void advance();

  /// Stabilised recompute of G at the current slice.
  void recompute();

  /// Recompute G for the *current* field state and clear the drift
  /// statistics (last_drift/max_drift/recomputes).  Call when reusing an
  /// engine on a new chain — e.g. after externally rewriting the HS field —
  /// so stale drift from the previous chain is not reported for the new one.
  void reseed();

  /// || G_wrapped - G_recomputed ||_max at the most recent stabilised
  /// recompute; a growing drift signals too large a wrap interval.
  double last_drift() const { return last_drift_; }

  /// Largest drift seen over all stabilised recomputes since construction
  /// or the last reseed() — not just the most recent one.
  double max_drift() const { return max_drift_; }

  /// Stabilised recomputes performed since construction / last reseed().
  /// Wall time spent in them accumulates in the shared obs registry under
  /// metrics::Accum::GreensRecompute (it is process-wide Green's-function
  /// work, not a per-engine quantity).
  index_t recomputes() const { return recomputes_; }

 private:
  /// Apply the pending U W accumulation to g_ with one GEMM.
  void flush_delayed() const;
  /// Effective G(i, i) / column / row including pending updates.
  double effective_diag(index_t i) const;

  const HubbardModel& model_;
  const HsField& field_;
  Spin spin_;
  index_t cluster_size_;
  index_t wrap_interval_;
  index_t delay_depth_;
  RecomputeMethod method_;
  index_t slice_ = 0;
  index_t wraps_since_recompute_ = 0;
  double last_drift_ = 0.0;
  double max_drift_ = 0.0;
  index_t recomputes_ = 0;
  // Delayed-update accumulators (mutable: flushing is observably pure).
  mutable Matrix g_;
  mutable Matrix delay_u_, delay_w_;  // N x depth, depth x N
  mutable index_t pending_ = 0;
};

/// Stabilised computation of (I + B_{k} B_{k-1} ... B_{k+1})^-1 — the
/// equal-time Green's function G(k, k) of the p-cyclic inverse — using
/// cluster products with QR re-orthogonalisation.  Exposed for tests and
/// for the U = 0 free-fermion checks.
Matrix equal_time_greens(const HubbardModel& model, const HsField& field,
                         Spin spin, index_t k, index_t cluster_size);

/// Same G(k, k), computed through the stab::StabilizedChain UDT engine:
/// the chain is accumulated as U diag(d) T with a pivoted QR every
/// `cluster_size` slices (FSI_STAB_CLUSTER overrides when set and > 0) and
/// inverted with the large/small-scale separation.  The accurate path at
/// large beta*L; see docs/stabilization.md.
Matrix stabilized_equal_time_greens(const HubbardModel& model,
                                    const HsField& field, Spin spin, index_t k,
                                    index_t cluster_size);

}  // namespace fsi::qmc
