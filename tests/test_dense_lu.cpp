/// Unit tests for the LU factorisation family (getrf/getrs/getri),
/// determinant bookkeeping and the condition estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/norms.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::dense;
using fsi::testing::expect_close;
using fsi::testing::random_dd_matrix;
using fsi::testing::random_matrix;

class LuSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(LuSizes, SolveResidualIsSmall) {
  const index_t n = GetParam();
  util::Rng rng(3, static_cast<std::uint64_t>(n));
  Matrix a = random_matrix(n, n, rng);
  LuFactorization lu = LuFactorization::of(a);

  Matrix b = random_matrix(n, 7, rng);
  Matrix x = b;
  lu.solve(x);
  Matrix ax(n, 7);
  gemm(Trans::No, Trans::No, 1.0, a, x, 0.0, ax);
  expect_close(ax, b, 1e-10, "A x = b");
}

TEST_P(LuSizes, TransposedSolve) {
  const index_t n = GetParam();
  util::Rng rng(4, static_cast<std::uint64_t>(n));
  Matrix a = random_matrix(n, n, rng);
  LuFactorization lu = LuFactorization::of(a);

  Matrix b = random_matrix(n, 3, rng);
  Matrix x = b;
  lu.solve(Trans::Yes, x);
  Matrix atx(n, 3);
  gemm(Trans::Yes, Trans::No, 1.0, a, x, 0.0, atx);
  expect_close(atx, b, 1e-10, "A^T x = b");
}

TEST_P(LuSizes, InverseTimesMatrixIsIdentity) {
  const index_t n = GetParam();
  util::Rng rng(6, static_cast<std::uint64_t>(n));
  Matrix a = random_matrix(n, n, rng);
  Matrix ainv = inverse(a);
  Matrix prod = matmul(a, ainv);
  expect_close(prod, Matrix::identity(n), 1e-9, "A A^-1");
  Matrix prod2 = matmul(ainv, a);
  expect_close(prod2, Matrix::identity(n), 1e-9, "A^-1 A");
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 5, 17, 64, 65, 129, 300));

TEST(Lu, FactorsReproduceMatrix) {
  // Reconstruct P^T L U and compare with A.
  const index_t n = 90;
  util::Rng rng(7);
  Matrix a = random_matrix(n, n, rng);
  LuFactorization lu = LuFactorization::of(a);

  Matrix l = Matrix::identity(n), u(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) l(i, j) = lu.factors()(i, j);
    for (index_t i = 0; i <= j; ++i) u(i, j) = lu.factors()(i, j);
  }
  Matrix pa = matmul(l, u);
  // Undo the pivoting: apply swaps in reverse to rows of PA.
  for (index_t i = n - 1; i >= 0; --i) {
    const index_t p = lu.pivots()[i];
    if (p == i) continue;
    for (index_t c = 0; c < n; ++c) std::swap(pa(i, c), pa(p, c));
  }
  expect_close(pa, a, 1e-11, "P^T L U = A");
}

TEST(Lu, DeterminantOfKnownMatrix) {
  // det([[2, 1], [1, 3]]) = 5.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  LuFactorization lu = LuFactorization::of(a);
  EXPECT_NEAR(lu.sign_det() * std::exp(lu.log_abs_det()), 5.0, 1e-12);
}

TEST(Lu, DeterminantSignOfPermutation) {
  // A row-swapped identity has determinant -1.
  Matrix a(3, 3);
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(2, 2) = 1;
  LuFactorization lu = LuFactorization::of(a);
  EXPECT_EQ(lu.sign_det(), -1);
  EXPECT_NEAR(lu.log_abs_det(), 0.0, 1e-14);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a(3, 3);  // all zeros
  EXPECT_THROW(LuFactorization::of(a), util::CheckError);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(LuFactorization(Matrix(3, 4)), util::CheckError);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  LuFactorization lu = LuFactorization::of(a);
  Matrix b(2, 1);
  b(0, 0) = 3;
  b(1, 0) = 4;
  Matrix x = b;
  lu.solve(x);
  EXPECT_NEAR(x(0, 0), 4.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 3.0, 1e-14);
}

TEST(Lu, ConditionEstimateIsInRightBallpark) {
  // diag(1, 1e-4) has kappa_1 = 1e4 exactly.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-4;
  LuFactorization lu = LuFactorization::of(a);
  const double est = cond1_estimate(lu, one_norm(a));
  EXPECT_GT(est, 1e3);
  EXPECT_LT(est, 1e5);
}

TEST(Lu, DiagonallyDominantIsStable) {
  const index_t n = 200;
  util::Rng rng(9);
  Matrix a = random_dd_matrix(n, rng);
  Matrix ainv = inverse(a);
  expect_close(matmul(a, ainv), Matrix::identity(n), 1e-12, "dd inverse");
}

// ---- scalar-generic suite: the LU family at both widths ------------------
// The fp32 instantiation backs BlockOpsF (mixed-precision WRP walks).

template <typename T>
class TypedLu : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TypedLu, Scalars);

TYPED_TEST(TypedLu, SolvesAllThreeModes) {
  using T = TypeParam;
  const index_t n = 37;
  util::Rng rng(61, static_cast<std::uint64_t>(n));
  BasicMatrix<T> a = fsi::testing::random_dd_matrix_t<T>(n, rng);
  BasicLuFactorization<T> lu = BasicLuFactorization<T>::of(a);

  BasicMatrix<T> b = fsi::testing::random_matrix_t<T>(n, 5, rng);
  BasicMatrix<T> x = b;
  lu.solve(x);
  BasicMatrix<T> ax(n, 5);
  gemm(Trans::No, Trans::No, T(1), a, x, T(0), ax);
  fsi::testing::expect_close(ax, b, fsi::testing::Tol<T>::tight, "typed Ax=b");

  x = b;
  lu.solve(Trans::Yes, x);
  gemm(Trans::Yes, Trans::No, T(1), a, x, T(0), ax);
  fsi::testing::expect_close(ax, b, fsi::testing::Tol<T>::tight,
                             "typed A^Tx=b");
}

TYPED_TEST(TypedLu, InverseRoundTripsAndSingularThrows) {
  using T = TypeParam;
  const index_t n = 48;
  util::Rng rng(62);
  BasicMatrix<T> a = fsi::testing::random_dd_matrix_t<T>(n, rng);
  BasicMatrix<T> ainv = BasicLuFactorization<T>::of(a).inverse();
  fsi::testing::expect_close(matmul(a, ainv), BasicMatrix<T>::identity(n),
                             fsi::testing::Tol<T>::loose, "typed A A^-1 = I");
  EXPECT_THROW(BasicLuFactorization<T>(BasicMatrix<T>(3, 3)),
               util::CheckError);
}

}  // namespace
