#pragma once
/// \file lu.hpp
/// \brief Blocked LU factorisation with partial pivoting (DGETRF family).
///
/// This is the reproduction's stand-in for the MKL routines the paper uses as
/// its correctness baseline ("G is computed by Intel MKL routines DGETRF and
/// DGETRI").  The factorisation is right-looking and blocked: panel
/// factorisation + pivot application + trsm + gemm trailing update, so its
/// flops run through the tuned Level-3 kernels.  Everything is templated
/// over the scalar (DGETRF/SGETRF); `LuFactorization` stays the fp64
/// default, `LuFactorizationF` is the fp32 instantiation the mixed-precision
/// adjacency walks use.

#include <vector>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/matrix.hpp"

namespace fsi::dense {

/// In-place blocked LU with partial pivoting: P * A = L * U.
/// On exit \p a holds L (unit lower, below diagonal) and U (upper);
/// \p ipiv holds the row swaps (ipiv[i]: row i was swapped with row ipiv[i],
/// applied in ascending order, LAPACK convention).
template <typename T>
void getrf(BasicMatrixView<T> a, std::vector<index_t>& ipiv);

inline void getrf(MatrixView a, std::vector<index_t>& ipiv) {
  getrf<double>(a, ipiv);
}
inline void getrf(MatrixViewF a, std::vector<index_t>& ipiv) {
  getrf<float>(a, ipiv);
}

/// Owning LU factorisation of a square matrix.
template <typename T>
class BasicLuFactorization {
 public:
  /// Factor \p a (consumed).  Throws util::CheckError on exact singularity.
  explicit BasicLuFactorization(BasicMatrix<T> a);

  /// Factor a copy of \p a.
  static BasicLuFactorization of(BasicConstMatrixView<T> a) {
    return BasicLuFactorization(BasicMatrix<T>::copy_of(a));
  }

  /// Solve op(A) X = B in-place (DGETRS).
  void solve(Trans trans, BasicMatrixView<T> b) const;
  /// Solve A X = B in-place.
  void solve(BasicMatrixView<T> b) const { solve(Trans::No, b); }

  /// Explicit inverse A^{-1} (DGETRI: triangular inversion + column sweeps).
  BasicMatrix<T> inverse() const;

  /// log |det A| and sign(det A), from the U diagonal and pivot parity.
  double log_abs_det() const;
  int sign_det() const;

  index_t n() const { return factors_.rows(); }
  const BasicMatrix<T>& factors() const { return factors_; }
  const std::vector<index_t>& pivots() const { return ipiv_; }

 private:
  BasicMatrix<T> factors_;
  std::vector<index_t> ipiv_;
};

extern template class BasicLuFactorization<double>;
extern template class BasicLuFactorization<float>;

using LuFactorization = BasicLuFactorization<double>;
using LuFactorizationF = BasicLuFactorization<float>;

/// Convenience: dense inverse of a square matrix via LU.
Matrix inverse(ConstMatrixView a);
MatrixF inverse(ConstMatrixViewF a);

/// Estimate the 1-norm condition number kappa_1(A) = ||A||_1 ||A^{-1}||_1
/// using Hager's power method on the factorisation (a few solves).
/// Used to report cond(M) ~ 1e5 as in the paper's validation section.
double cond1_estimate(const LuFactorization& lu, double a_one_norm);

}  // namespace fsi::dense
