#pragma once
/// \file testing.hpp
/// \brief Shared helpers for the FSI test suite.

#include <gtest/gtest.h>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/matrix.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::testing {

/// Uniform random matrix with entries in [-1, 1).
inline dense::Matrix random_matrix(dense::index_t m, dense::index_t n,
                                   util::Rng& rng) {
  dense::Matrix a(m, n);
  for (dense::index_t j = 0; j < n; ++j)
    for (dense::index_t i = 0; i < m; ++i) a(i, j) = rng.uniform(-1.0, 1.0);
  return a;
}

/// Random diagonally-dominant matrix (well-conditioned, safe to invert).
inline dense::Matrix random_dd_matrix(dense::index_t n, util::Rng& rng) {
  dense::Matrix a = random_matrix(n, n, rng);
  for (dense::index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// Reference three-loop GEMM: C := alpha op(A) op(B) + beta C.
inline void naive_gemm(dense::Trans ta, dense::Trans tb, double alpha,
                       dense::ConstMatrixView a, dense::ConstMatrixView b,
                       double beta, dense::MatrixView c) {
  using dense::index_t;
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == dense::Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double av = (ta == dense::Trans::No) ? a(i, p) : a(p, i);
        const double bv = (tb == dense::Trans::No) ? b(p, j) : b(j, p);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
  }
}

/// |fp32 result - fp64 twin| within float round-off for O(1) blocks.
inline constexpr double kFloatTol = 1e-4;

/// EXPECT helper: Frobenius-relative difference below tolerance.
inline void expect_close(dense::ConstMatrixView actual,
                         dense::ConstMatrixView expected, double tol,
                         const char* what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  const double err = dense::rel_fro_error(actual, expected);
  EXPECT_LE(err, tol) << what << " rel_fro_error=" << err;
}

/// fp32 overload (rel_fro_error accumulates in double for both widths).
inline void expect_close(dense::ConstMatrixViewF actual,
                         dense::ConstMatrixViewF expected, double tol,
                         const char* what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  const double err = dense::rel_fro_error(actual, expected);
  EXPECT_LE(err, tol) << what << " rel_fro_error=" << err;
}

// ---- scalar-typed twins, for the TYPED_TEST suites that pin the
// scalar-generic kernels at both widths ------------------------------------

/// Width-appropriate tolerances: the same ~1e3–1e5 ulp headroom the fp64
/// suites use, scaled to each scalar's epsilon.
template <typename T>
struct Tol;
template <>
struct Tol<double> {
  static constexpr double tight = 1e-11;  ///< one well-behaved kernel
  static constexpr double loose = 1e-9;   ///< factor/solve round trips
};
template <>
struct Tol<float> {
  static constexpr double tight = 1e-4;
  static constexpr double loose = 5e-3;
};

/// Uniform random matrix with entries in [-1, 1), any scalar.
template <typename T>
inline dense::BasicMatrix<T> random_matrix_t(dense::index_t m,
                                             dense::index_t n, util::Rng& rng) {
  dense::BasicMatrix<T> a(m, n);
  for (dense::index_t j = 0; j < n; ++j)
    for (dense::index_t i = 0; i < m; ++i)
      a(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
  return a;
}

/// Random diagonally-dominant matrix, any scalar.
template <typename T>
inline dense::BasicMatrix<T> random_dd_matrix_t(dense::index_t n,
                                                util::Rng& rng) {
  dense::BasicMatrix<T> a = random_matrix_t<T>(n, n, rng);
  for (dense::index_t i = 0; i < n; ++i) a(i, i) += static_cast<T>(n);
  return a;
}

/// Reference three-loop GEMM at scalar T (accumulates in T, like the
/// kernel, so the comparison measures ordering error only).
template <typename T>
inline void naive_gemm_t(dense::Trans ta, dense::Trans tb, T alpha,
                         dense::BasicConstMatrixView<T> a,
                         dense::BasicConstMatrixView<T> b, T beta,
                         dense::BasicMatrixView<T> c) {
  using dense::index_t;
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == dense::Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      T s = T(0);
      for (index_t p = 0; p < k; ++p) {
        const T av = (ta == dense::Trans::No) ? a(i, p) : a(p, i);
        const T bv = (tb == dense::Trans::No) ? b(p, j) : b(j, p);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
  }
}

}  // namespace fsi::testing
