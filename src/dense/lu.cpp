#include "fsi/dense/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fsi/obs/metrics.hpp"
#include "fsi/util/flops.hpp"

namespace fsi::dense {
namespace {

constexpr index_t kLuPanel = 64;

/// Unblocked panel factorisation (DGETF2) with partial pivoting.
/// ipiv entries are relative to the panel's first row.
template <typename T>
void getf2(BasicMatrixView<T> a, index_t* ipiv) {
  const index_t m = a.rows(), n = a.cols();
  const index_t k = std::min(m, n);
  for (index_t j = 0; j < k; ++j) {
    // Pivot: largest magnitude in column j at or below the diagonal.
    index_t p = j;
    T pmax = std::fabs(a(j, j));
    for (index_t i = j + 1; i < m; ++i) {
      const T v = std::fabs(a(i, j));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    ipiv[j] = p;
    FSI_CHECK(pmax != T(0), "getrf: matrix is exactly singular");
    if (p != j)
      for (index_t c = 0; c < n; ++c) std::swap(a(j, c), a(p, c));

    const T inv = T(1) / a(j, j);
    T* colj = a.col(j);
    for (index_t i = j + 1; i < m; ++i) colj[i] *= inv;

    // Rank-1 trailing update.
    for (index_t c = j + 1; c < n; ++c) {
      const T ajc = a(j, c);
      if (ajc == T(0)) continue;
      T* colc = a.col(c);
#pragma omp simd
      for (index_t i = j + 1; i < m; ++i) colc[i] -= colj[i] * ajc;
    }
    util::flops::add(static_cast<std::uint64_t>(m - j) * (2 * (n - j) + 1));
  }
}

/// Apply the row interchanges ipiv[first..last) to the columns of \p a.
template <typename T>
void laswp(BasicMatrixView<T> a, const std::vector<index_t>& ipiv,
           index_t first, index_t last, bool forward) {
  auto swap_row = [&](index_t i) {
    const index_t p = ipiv[i];
    if (p == i) return;
    for (index_t c = 0; c < a.cols(); ++c) std::swap(a(i, c), a(p, c));
  };
  if (forward)
    for (index_t i = first; i < last; ++i) swap_row(i);
  else
    for (index_t i = last - 1; i >= first; --i) swap_row(i);
}

}  // namespace

template <typename T>
void getrf(BasicMatrixView<T> a, std::vector<index_t>& ipiv) {
  const index_t m = a.rows(), n = a.cols();
  const index_t k = std::min(m, n);
  obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);
  ipiv.assign(static_cast<std::size_t>(k), 0);

  for (index_t jb = 0; jb < k; jb += kLuPanel) {
    const index_t nb = std::min(kLuPanel, k - jb);
    // Factor the panel a(jb:m, jb:jb+nb).
    getf2(a.block(jb, jb, m - jb, nb), ipiv.data() + jb);
    for (index_t i = jb; i < jb + nb; ++i) ipiv[i] += jb;

    // Apply the panel's pivots to the columns left and right of it.
    if (jb > 0) laswp(a.block(0, 0, m, jb), ipiv, jb, jb + nb, true);
    if (jb + nb < n) {
      laswp(a.block(0, jb + nb, m, n - jb - nb), ipiv, jb, jb + nb, true);
      // U12 := L11^-1 A12.
      trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
           BasicConstMatrixView<T>(a.block(jb, jb, nb, nb)),
           a.block(jb, jb + nb, nb, n - jb - nb));
      // Trailing update A22 -= L21 U12.
      if (jb + nb < m)
        gemm(Trans::No, Trans::No, T(-1),
             BasicConstMatrixView<T>(a.block(jb + nb, jb, m - jb - nb, nb)),
             BasicConstMatrixView<T>(
                 a.block(jb, jb + nb, nb, n - jb - nb)),
             T(1), a.block(jb + nb, jb + nb, m - jb - nb, n - jb - nb));
    }
  }
}

template void getrf<double>(MatrixView, std::vector<index_t>&);
template void getrf<float>(MatrixViewF, std::vector<index_t>&);

template <typename T>
BasicLuFactorization<T>::BasicLuFactorization(BasicMatrix<T> a)
    : factors_(std::move(a)) {
  FSI_CHECK(factors_.rows() == factors_.cols(),
            "LuFactorization: matrix must be square");
  getrf<T>(factors_, ipiv_);
}

template <typename T>
void BasicLuFactorization<T>::solve(Trans trans, BasicMatrixView<T> b) const {
  FSI_CHECK(b.rows() == n(), "LU solve: RHS row count mismatch");
  if (trans == Trans::No) {
    // A = P^T L U  =>  L U X = P B.
    laswp(b, ipiv_, 0, n(), true);
    trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
         BasicConstMatrixView<T>(factors_), b);
    trsm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, T(1),
         BasicConstMatrixView<T>(factors_), b);
  } else {
    // A^T = U^T L^T P  =>  X = P^T L^-T U^-T B.
    trsm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, T(1),
         BasicConstMatrixView<T>(factors_), b);
    trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::Unit, T(1),
         BasicConstMatrixView<T>(factors_), b);
    laswp(b, ipiv_, 0, n(), false);
  }
}

template <typename T>
BasicMatrix<T> BasicLuFactorization<T>::inverse() const {
  // DGETRI: A^-1 = U^-1 L^-1 P.
  BasicMatrix<T> inv = factors_;
  BasicMatrixView<T> v = inv;
  trtri(Uplo::Upper, Diag::NonUnit, v);
  // U^-1 must be an explicit upper-triangular matrix for the right-solve:
  // clear the strictly-lower part, which still holds the L factor.
  for (index_t j = 0; j < n(); ++j)
    for (index_t i = j + 1; i < n(); ++i) inv(i, j) = T(0);
  // Solve X L = U^-1 against the unit-lower factor kept in factors_.
  trsm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, T(1),
       BasicConstMatrixView<T>(factors_), v);
  // Column interchanges, descending.
  for (index_t j = n() - 1; j >= 0; --j) {
    const index_t p = ipiv_[j];
    if (p == j) continue;
    for (index_t i = 0; i < n(); ++i) std::swap(inv(i, j), inv(i, p));
  }
  return inv;
}

template <typename T>
double BasicLuFactorization<T>::log_abs_det() const {
  double s = 0.0;
  for (index_t i = 0; i < n(); ++i)
    s += std::log(std::fabs(static_cast<double>(factors_(i, i))));
  return s;
}

template <typename T>
int BasicLuFactorization<T>::sign_det() const {
  int sign = 1;
  for (index_t i = 0; i < n(); ++i) {
    if (ipiv_[i] != i) sign = -sign;
    if (factors_(i, i) < T(0)) sign = -sign;
  }
  return sign;
}

template class BasicLuFactorization<double>;
template class BasicLuFactorization<float>;

Matrix inverse(ConstMatrixView a) { return LuFactorization::of(a).inverse(); }
MatrixF inverse(ConstMatrixViewF a) {
  return LuFactorizationF::of(a).inverse();
}

double cond1_estimate(const LuFactorization& lu, double a_one_norm) {
  // Hager's 1-norm estimator for ||A^-1||_1: power iteration on the dual.
  const index_t n = lu.n();
  if (n == 0) return 0.0;
  Matrix x(n, 1);
  for (index_t i = 0; i < n; ++i) x(i, 0) = 1.0 / static_cast<double>(n);
  double est = 0.0;
  for (int iter = 0; iter < 5; ++iter) {
    Matrix y = x;
    lu.solve(Trans::No, y);
    double ynorm = 0.0;
    for (index_t i = 0; i < n; ++i) ynorm += std::fabs(y(i, 0));
    est = ynorm;
    // z = A^-T sign(y)
    Matrix z(n, 1);
    for (index_t i = 0; i < n; ++i) z(i, 0) = (y(i, 0) >= 0.0) ? 1.0 : -1.0;
    lu.solve(Trans::Yes, z);
    // Next x: e_j at the max |z_j|; stop if no growth.
    index_t jmax = 0;
    double zmax = std::fabs(z(0, 0));
    for (index_t i = 1; i < n; ++i) {
      if (std::fabs(z(i, 0)) > zmax) {
        zmax = std::fabs(z(i, 0));
        jmax = i;
      }
    }
    double zx = 0.0;
    for (index_t i = 0; i < n; ++i) zx += z(i, 0) * x(i, 0);
    if (zmax <= zx) break;
    x.fill(0.0);
    x(jmax, 0) = 1.0;
  }
  return est * a_one_norm;
}

}  // namespace fsi::dense
