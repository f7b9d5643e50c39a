#pragma once
/// \file adjacency.hpp
/// \brief The adjacency relations between neighbouring Green's-function
/// blocks (Eqs. 4–7 of the paper) — the engine of the FSI wrapping stage.
///
/// Once any block G(k, l) is known, its four neighbours follow from one
/// N x N matrix product:
///   up    : G(k-1, l) = B_k^-1 G(k, l)
///   down  : G(k+1, l) = B_{k+1} G(k, l)
///   left  : G(k, l-1) = G(k, l) B_l
///   right : G(k, l+1) = G(k, l) B_{l+1}^-1
/// with twelve boundary special cases (diagonal / first row / last row /
/// first column / last column / corners) spelled out in the paper and
/// re-derived in 0-based torus indexing in the implementation.
///
/// BlockOps keeps every B block's inverse, so all four moves are one GEMM
/// each.  A caller that knows the inverses in closed form (the Hubbard
/// model: B^-1 = e^{-sigma nu V} e^{-t dtau K}, O(N^2) per block) hands
/// them over; otherwise BlockOps inverts each block once (LU, then the
/// explicit inverse).  All moves are `const` and safe to call
/// concurrently, which is how the wrapping stage parallelises over seeds.

#include <vector>

#include "fsi/pcyclic/pcyclic.hpp"

namespace fsi::pcyclic {

/// Per-matrix context for adjacency moves at scalar \p T: the B blocks
/// (the matrix's own for double, demoted copies for float) and their
/// inverses.  Indexing always goes through the referenced fp64 matrix, so
/// wrap arithmetic and bounds are shared by both widths.
template <typename T>
class BasicBlockOps {
 public:
  using Block = dense::BasicMatrix<T>;
  using ConstView = dense::BasicConstMatrixView<T>;

  /// Invert all L blocks (LU, parallelised with OpenMP) — for p-cyclic
  /// matrices whose inverses are not known.  Throws util::CheckError when
  /// a block is exactly singular.
  explicit BasicBlockOps(const PCyclicMatrix& m);
  /// Take the L fp64 inverses B[i]^-1 instead of inverting: moved in at
  /// T = double, demoted at T = float.  Throws util::CheckError unless
  /// \p inverses holds one N x N matrix per block of \p m.
  BasicBlockOps(const PCyclicMatrix& m, std::vector<dense::Matrix> inverses);

  const PCyclicMatrix& matrix() const { return m_; }
  index_t block_size() const { return m_.block_size(); }
  index_t num_blocks() const { return m_.num_blocks(); }

  /// B[i] at scalar T.
  ConstView b(index_t i) const;
  /// B[i]^-1 at scalar T.
  ConstView inv(index_t i) const;

  /// G(k-1, l) from g = G(k, l)   (Eq. 4, all boundary cases).
  Block up(index_t k, index_t l, ConstView g) const;
  /// G(k+1, l) from g = G(k, l)   (Eq. 5).
  Block down(index_t k, index_t l, ConstView g) const;
  /// G(k, l-1) from g = G(k, l)   (Eq. 6).
  Block left(index_t k, index_t l, ConstView g) const;
  /// G(k, l+1) from g = G(k, l)   (Eq. 7).
  Block right(index_t k, index_t l, ConstView g) const;

 private:
  const PCyclicMatrix& m_;
  std::vector<Block> demoted_;  ///< fp32 copies of the B blocks (float only)
  std::vector<Block> inv_;
};

extern template class BasicBlockOps<double>;
extern template class BasicBlockOps<float>;

/// The fp64 adjacency moves of the default FSI path.
using BlockOps = BasicBlockOps<double>;

/// fp32 moves for the mixed-precision wrapping stage: the same moves and
/// boundary cases on demoted B blocks and demoted (or fp32-computed)
/// inverses.  Every move runs at the fp32 GEMM rate — the WRP half of the
/// Mixed speedup.  Accuracy is policed downstream by the selinv mixed
/// gate, not here.
using BlockOpsF = BasicBlockOps<float>;

}  // namespace fsi::pcyclic
