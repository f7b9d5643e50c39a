#pragma once
/// \file bsofi.hpp
/// \brief Block Structured Orthogonal Factorisation and Inversion (BSOFI).
///
/// Step 2 of the FSI algorithm (paper Sec. II-C, method from Gogolenko, Bai
/// & Scalettar, Euro-Par 2014): invert the *reduced* block p-cyclic matrix
/// M~ = Q R with a sequence of 2N x N Householder panel QRs marching down
/// the block subdiagonal, then form G~ = R^-1 Q^T.
///
/// The structured R has only three kinds of nonzero blocks — diagonal R_ii,
/// superdiagonal R_{i,i+1} and last-column R_{i,b-1} — so both the
/// factorisation (O(b N^3)) and the inversion (O(b^2 N^3), ~7 b^2 N^3 flops
/// per the paper) exploit the p-cyclic structure instead of paying the
/// O(b^3 N^3) of a dense QR.  BSOFI is the numerically stable heart of FSI:
/// orthogonal transformations keep the clustered chain products from
/// amplifying round-off.

#include <vector>

#include "fsi/dense/matrix.hpp"
#include "fsi/pcyclic/pcyclic.hpp"

namespace fsi::bsofi {

using dense::ConstMatrixView;
using dense::index_t;
using dense::Matrix;

/// The structured QR factorisation of a block p-cyclic matrix in normal
/// form.  Build once, then call inverse().
class Bsofi {
 public:
  /// Factor M~ (the reduced matrix of the FSI pipeline, or any p-cyclic
  /// matrix in normal form).
  explicit Bsofi(const pcyclic::PCyclicMatrix& m);

  /// Full dense inverse G~ = R^-1 Q^T of size (b N) x (b N).
  Matrix inverse() const;

  /// Partial inversion: block row k0 of G~ only (N x bN), in O(b N^3)
  /// instead of the O(b^2 N^3) full inversion — the economical path when a
  /// consumer needs a single seed row (e.g. one equal-time Green's function
  /// block, or the diagonal-only patterns where BSOFI dominates the cost).
  Matrix inverse_block_row(index_t k0) const;

  index_t block_size() const { return n_; }
  index_t num_blocks() const { return b_; }

  /// R_ii (upper triangular, stored in the top of panel i) — test access.
  Matrix r_diag(index_t i) const;
  /// R_{i,i+1} for i in [0, b-1) — test access.
  const Matrix& r_sup(index_t i) const;
  /// R_{i,b-1} for i in [0, b-2) — test access (empty when b < 3).
  const Matrix& r_last(index_t i) const;

 private:
  index_t n_ = 0, b_ = 0;
  // Panel i (i < b-1): packed 2N x N Householder factors of
  // [X_ii; -B_{i+1}]; panel b-1: packed N x N factors of the final block.
  std::vector<Matrix> panels_;
  std::vector<std::vector<double>> taus_;
  std::vector<Matrix> rsup_;   // R_{i,i+1}, i = 0..b-2
  std::vector<Matrix> rlast_;  // R_{i,b-1}, i = 0..b-3
};

/// Convenience: full inverse of a block p-cyclic matrix via BSOFI.
Matrix invert(const pcyclic::PCyclicMatrix& m);

/// Reference comparator: dense LU inversion of the assembled matrix
/// (the paper's "MKL DGETRF/DGETRI" path).
Matrix invert_dense_lu(const pcyclic::PCyclicMatrix& m);

}  // namespace fsi::bsofi
