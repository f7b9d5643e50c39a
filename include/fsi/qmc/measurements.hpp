#pragma once
/// \file measurements.hpp
/// \brief Physical measurements of the DQMC simulation (paper Sec. IV).
///
/// Two categories, as in the paper:
///   - *equal-time* measurements need only diagonal blocks G(k, k): density,
///     double occupancy, kinetic energy, local moment;
///   - *time-dependent* measurements need off-diagonal blocks; the paper's
///     worked example is the XY spin-spin correlation SPXX, an
///     L x d_max matrix built from element-wise products
///     G^up_{kl}(i,j) G^dn_{lk}(j,i) + (up <-> dn) — which is why the
///     selected inversion must deliver block rows AND block columns
///     simultaneously.
///
/// Measurements accumulate sign-weighted sums (standard DQMC estimator
/// <O> = <O s> / <s>), merge across tasks in task order, and serialise to
/// flat double buffers (checkpoints and serve responses).

#include <vector>

#include "fsi/pcyclic/patterns.hpp"
#include "fsi/qmc/lattice.hpp"

namespace fsi::qmc {

/// Accumulated measurement quantities for one simulation (or one rank /
/// thread before merging).
class Measurements {
 public:
  /// \p l: time slices (rows of SPXX); \p dmax: spatial distance classes.
  Measurements(index_t l, index_t dmax);

  index_t num_slices() const { return l_; }
  index_t num_distance_classes() const { return dmax_; }
  double samples() const { return n_samples_; }

  // -- accumulation (called by the drivers) ---------------------------------
  /// Register one configuration with Monte Carlo sign \p sign; the
  /// subsequent add_* calls contribute that configuration's observables
  /// (already sign-weighted by the caller via the same sign).
  void add_sample(double sign);
  void add_density(double up, double down);       ///< per-site, sign-weighted
  void add_double_occupancy(double v);            ///< per-site, sign-weighted
  void add_kinetic_energy(double v);              ///< per-site, sign-weighted
  void add_af_structure_factor(double v);         ///< sign-weighted
  void add_pair_susceptibility(double v);         ///< sign-weighted
  void add_spxx(index_t tau, index_t d, double v);

  /// Merge another accumulator (thread-local or remote rank).
  void merge(const Measurements& other);

  // -- sign-corrected estimators --------------------------------------------
  double avg_sign() const;
  double density() const;           ///< <n> = <n_up + n_dn>
  double density_up() const;
  double density_down() const;
  double double_occupancy() const;  ///< <n_up n_dn>
  double kinetic_energy() const;    ///< per site
  /// Local moment <m_z^2> = <n_up> + <n_dn> - 2 <n_up n_dn>.
  double local_moment() const;
  /// Antiferromagnetic structure factor
  /// S_AF = (1/N) sum_ij (-1)^{i+j} <m_i^z m_j^z> (equal-time, staggered) —
  /// the magnetism probe of the paper's introduction.
  double af_structure_factor() const;
  /// s-wave pair-field susceptibility chi_pair =
  /// integral_0^beta dtau (1/N) sum_ij <Delta_i(tau) Delta_j^+(0)>,
  /// Delta_i = c_{i dn} c_{i up} — the superconductivity probe the paper's
  /// abstract motivates ("physical measurements such as superconductivity").
  double pair_susceptibility() const;
  double spxx(index_t tau, index_t d) const;

  // -- flat-buffer exchange (checkpoints, serve responses) -------------------
  std::vector<double> serialize() const;
  static Measurements deserialize(index_t l, index_t dmax,
                                  const std::vector<double>& buf);
  static std::size_t serialized_size(index_t l, index_t dmax);

 private:
  index_t l_ = 0, dmax_ = 0;
  double n_samples_ = 0.0;
  double sign_sum_ = 0.0;
  double den_up_ = 0.0, den_dn_ = 0.0;
  double docc_ = 0.0;
  double kinetic_ = 0.0;
  double af_ = 0.0;
  double pair_ = 0.0;
  std::vector<double> spxx_;
};

/// Accumulate the equal-time observables of one configuration from
/// diagonal Green blocks of both spins (Pattern::AllDiagonals or
/// Pattern::Diagonal).  Averages over the available diagonal blocks and
/// sites; runs the slice loop in OpenMP when \p parallel is set (the
/// paper's FSI mode) or serially (the MKL mode of Fig. 10).
void accumulate_equal_time(const Lattice& lat,
                           const pcyclic::SelectedInversion& g_up,
                           const pcyclic::SelectedInversion& g_dn, double t_hop,
                           double sign, bool parallel, Measurements& out);

/// Accumulate the SPXX time-dependent correlation of one configuration.
/// \p rows_* and \p cols_* are Pattern::Rows / Pattern::Columns selected
/// inversions with the SAME Selection, so that for every selected k both
/// G_{k,l} (row) and G_{l,k} (column) are available — the paper's
/// requirement that "block columns and rows are both required".
/// SPXX(tau, d) = 1/(2 C(tau) |D(d)|) sum_{k in I} sum_{(i,j) in D(d)}
///   [G^up_{k,l}(i,j) G^dn_{l,k}(j,i) + G^dn_{k,l}(i,j) G^up_{l,k}(j,i)],
/// l = (k - tau) mod L.  Element-wise Level-1 work, OpenMP-threaded per
/// the paper when \p parallel is set.
/// Accumulate the s-wave pair-field susceptibility of one configuration
/// from block rows of both spins (same Selection):
///   chi_pair += dtau * (1/(N C(tau))) sum_{k in I, l} sum_ij
///                 G^up_{k,l}(i,j) G^dn_{k,l}(i,j).
/// Needs only Pattern::Rows — one of the selected-inversion shapes FSI
/// serves directly.
void accumulate_pair_susceptibility(const Lattice& lat,
                                    const pcyclic::SelectedInversion& rows_up,
                                    const pcyclic::SelectedInversion& rows_dn,
                                    double dtau, double sign, bool parallel,
                                    Measurements& out);

void accumulate_spxx(const Lattice& lat,
                     const pcyclic::SelectedInversion& rows_up,
                     const pcyclic::SelectedInversion& cols_up,
                     const pcyclic::SelectedInversion& rows_dn,
                     const pcyclic::SelectedInversion& cols_dn, double sign,
                     bool parallel, Measurements& out);

}  // namespace fsi::qmc
