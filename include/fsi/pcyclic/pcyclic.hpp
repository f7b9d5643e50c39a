#pragma once
/// \file pcyclic.hpp
/// \brief Block p-cyclic matrices in normal form (the "Hubbard matrices").
///
/// The paper's Eq. (1) matrix A is normalised to M = D^-1 A, which has
/// identity diagonal blocks, -B_i on the block subdiagonal (i = 2..L) and
/// +B_1 in the top-right corner:
///
///         [  I                 B_1 ]
///         [ -B_2   I               ]
///   M  =  [       -B_3  I          ]
///         [             ...        ]
///         [            -B_L   I    ]
///
/// PCyclicMatrix stores exactly the L dense N x N blocks B_1..B_L.  This
/// file uses 0-based indices throughout: b(i) is the paper's B_{i+1}, and
/// Green's-function blocks G(k, l) correspond to the paper's G_{k+1,l+1}.
/// All index arithmetic is cyclic ("torus index notation" in the paper).

#include <vector>

#include "fsi/dense/matrix.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::pcyclic {

using dense::ConstMatrixView;
using dense::index_t;
using dense::Matrix;
using dense::MatrixView;

/// Block p-cyclic matrix in normal form, stored as its B blocks.
class PCyclicMatrix {
 public:
  /// L zero blocks of size N x N (fill via b()).
  PCyclicMatrix(index_t block_size, index_t num_blocks);

  /// Take ownership of pre-built blocks (all must be square, same size).
  explicit PCyclicMatrix(std::vector<Matrix> blocks);

  /// Random nonsingular instance: B_i = I/2 + U with U uniform in
  /// [-1/(2N), 1/(2N)) — well-conditioned, suitable for unit tests.
  static PCyclicMatrix random(index_t block_size, index_t num_blocks,
                              util::Rng& rng);

  /// Block dimension N.
  index_t block_size() const { return n_; }
  /// Number of block rows/columns L.
  index_t num_blocks() const { return l_; }
  /// Overall matrix dimension N * L.
  index_t dim() const { return n_ * l_; }

  /// The paper's B_{i+1} (0-based i in [0, L)).
  MatrixView b(index_t i);
  ConstMatrixView b(index_t i) const;
  Matrix& b_matrix(index_t i);
  const Matrix& b_matrix(index_t i) const;

  /// Cyclic index helper: wraps i into [0, L).
  index_t wrap(index_t i) const {
    const index_t l = l_;
    return ((i % l) + l) % l;
  }

  /// Assemble the dense NL x NL matrix M (for baselines and tests).
  Matrix to_dense() const;

  /// Storage footprint of the B blocks in bytes.
  std::size_t bytes() const;

 private:
  index_t n_ = 0, l_ = 0;
  std::vector<Matrix> blocks_;
};

/// Product of the chain B[k] B[k-1] ... B[l+1] (cyclic descending,
/// (k - l) mod L factors; k == l gives the identity).  This is the paper's
/// Z_{kl} chain without the sign.
Matrix chain_product(const PCyclicMatrix& m, index_t k, index_t l);

/// W_k = I + B[k] B[k-1] ... B[k+1] (full cyclic chain of L factors);
/// Eq. (3) of the paper.
Matrix w_matrix(const PCyclicMatrix& m, index_t k);

}  // namespace fsi::pcyclic
