#pragma once
/// \file hubbard.hpp
/// \brief Hubbard-model physics: parameters, Hubbard-Stratonovich field and
/// the B-matrix / Hubbard-matrix factory (paper Secs. IV, V-A).
///
/// After the Trotter split and the discrete Hubbard-Stratonovich (HS)
/// transformation, each imaginary-time slice l contributes a propagator
///   B_l^sigma = e^{t dtau K} e^{sigma nu V_l(h)},
/// where K is the lattice adjacency matrix, V_l(h) = diag(h(l, :)) is the
/// Ising HS field at slice l, sigma = +1/-1 for spin up/down, and
/// cosh(nu) = e^{U dtau / 2}.  The Hubbard matrix M^sigma(h) is the block
/// p-cyclic matrix of Sec. II-A built from these B blocks.

#include <cmath>
#include <cstdint>
#include <vector>

#include "fsi/pcyclic/pcyclic.hpp"
#include "fsi/qmc/lattice.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::qmc {

/// Spin direction: the paper's sigma in {+1 (up), -1 (down)}.
enum class Spin : int { Up = +1, Down = -1 };
inline int sign_of(Spin s) { return static_cast<int>(s); }

/// How the kinetic propagator e^{t dtau K} is realised.
enum class Kinetic {
  Exact,         ///< dense Pade matrix exponential (this library's default)
  Checkerboard,  ///< QUEST-style bond-split approximation (O(dtau^2) error)
};

/// Physical parameters of one simulation (paper defaults in parentheses).
struct HubbardParams {
  double t = 1.0;     ///< hopping amplitude (1)
  double u = 2.0;     ///< on-site interaction U (2)
  double beta = 1.0;  ///< inverse temperature (1)
  index_t l = 8;      ///< imaginary-time slices L; dtau = beta / L
  Kinetic kinetic = Kinetic::Exact;  ///< kinetic propagator realisation

  double dtau() const { return beta / static_cast<double>(l); }
  /// HS coupling: cosh(nu) = e^{U dtau / 2}.
  double nu() const { return std::acosh(std::exp(u * dtau() / 2.0)); }
};

/// The Ising Hubbard-Stratonovich configuration h(l, i) = +-1.
class HsField {
 public:
  /// All spins +1.
  HsField(index_t l, index_t n);
  /// Random +-1 configuration (the paper's initialisation).
  HsField(index_t l, index_t n, util::Rng& rng);

  index_t num_slices() const { return l_; }
  index_t num_sites() const { return n_; }

  int at(index_t slice, index_t site) const {
    return h_[index(slice, site)];
  }
  void set(index_t slice, index_t site, int value);
  /// Flip h(l, i) in place (the Metropolis proposal h' = -h).
  void flip(index_t slice, index_t site) {
    h_[index(slice, site)] = -h_[index(slice, site)];
  }

  /// Pack into doubles for checkpoints and serve requests (paper Alg. 3
  /// likewise scatters the HS parameters, not the matrices).
  std::vector<double> serialize() const;
  static HsField deserialize(index_t l, index_t n,
                             const double* data, std::size_t len);

 private:
  std::size_t index(index_t slice, index_t site) const {
    FSI_ASSERT(slice >= 0 && slice < l_ && site >= 0 && site < n_);
    return static_cast<std::size_t>(slice) * n_ + site;
  }

  index_t l_ = 0, n_ = 0;
  std::vector<std::int8_t> h_;
};

/// Precomputed propagator pieces for a (lattice, parameters) pair; builds
/// B matrices and full Hubbard matrices for any HS configuration.
class HubbardModel {
 public:
  HubbardModel(Lattice lattice, HubbardParams params);

  const Lattice& lattice() const { return lattice_; }
  const HubbardParams& params() const { return params_; }
  index_t num_sites() const { return lattice_.num_sites(); }

  /// e^{t dtau K} (exact dense exponential, computed once).
  const Matrix& expk() const { return expk_; }
  /// e^{-t dtau K}.
  const Matrix& expk_inv() const { return expk_inv_; }

  /// B_l^sigma = e^{t dtau K} e^{sigma nu V_l(h)}.
  Matrix b_matrix(const HsField& h, index_t slice, Spin spin) const;
  /// (B_l^sigma)^-1 = e^{-sigma nu V_l(h)} e^{-t dtau K} (analytic inverse,
  /// O(N^2)).
  Matrix b_matrix_inv(const HsField& h, index_t slice, Spin spin) const;

  /// The full Hubbard matrix M^sigma(h) as a block p-cyclic matrix.
  pcyclic::PCyclicMatrix build_m(const HsField& h, Spin spin) const;
  /// The inverses of build_m's L blocks in slice order, b_matrix_inv for
  /// every slice — what pcyclic::BlockOps takes instead of inverting the
  /// blocks by LU.
  std::vector<Matrix> b_inverses(const HsField& h, Spin spin) const;

  /// In-place g := B_l^sigma * g (used by the Green's-function wraps).
  void multiply_b_left(const HsField& h, index_t slice, Spin spin,
                       Matrix& g) const;
  /// In-place g := g * (B_l^sigma)^-1.
  void multiply_binv_right(const HsField& h, index_t slice, Spin spin,
                           Matrix& g) const;

  /// The HS weight factor e^{sigma nu h} for a single site value.
  double hs_factor(int h, Spin spin) const {
    return std::exp(sign_of(spin) * params_.nu() * h);
  }

 private:
  /// f_i = hs_factor(h(slice, i), spin) for every site: the diagonal of
  /// e^{sigma nu V_l(h)}.  B scales the columns of e^{t dtau K} by f, and
  /// B^-1 the rows of e^{-t dtau K} by 1 / f.
  std::vector<double> hs_diagonal(const HsField& h, index_t slice,
                                  Spin spin) const;

  Lattice lattice_;
  HubbardParams params_;
  Matrix expk_, expk_inv_;
};

}  // namespace fsi::qmc
