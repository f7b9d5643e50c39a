/// Unit tests for the Householder QR: reconstruction, orthogonality,
/// and all four ormqr application modes (needed by BSOFI).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/dense/qr.hpp"
#include "fsi/util/flops.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::dense;
using fsi::testing::expect_close;
using fsi::testing::random_matrix;

struct QrShape {
  index_t m, n;
};

class QrShapes : public ::testing::TestWithParam<QrShape> {};

TEST_P(QrShapes, ReconstructsA) {
  const auto [m, n] = GetParam();
  util::Rng rng(21, static_cast<std::uint64_t>(m * 1000 + n));
  Matrix a = random_matrix(m, n, rng);
  QrFactorization qr(Matrix::copy_of(a));

  // Q * [R; 0] should equal A.
  Matrix r_full(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, m - 1); ++i) r_full(i, j) = qr.packed()(i, j);
  qr.apply_q(Side::Left, Trans::No, r_full);
  expect_close(r_full, a, 1e-11, "Q R = A");
}

TEST_P(QrShapes, QIsOrthogonal) {
  const auto [m, n] = GetParam();
  util::Rng rng(22, static_cast<std::uint64_t>(m * 1000 + n));
  Matrix a = random_matrix(m, n, rng);
  QrFactorization qr(std::move(a));
  Matrix q = qr.q();
  Matrix qtq(m, m);
  gemm(Trans::Yes, Trans::No, 1.0, q, q, 0.0, qtq);
  expect_close(qtq, Matrix::identity(m), 1e-11, "Q^T Q = I");
}

// ---- scalar-generic suite: the QR family at both widths ------------------

template <typename T>
class TypedQr : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TypedQr, Scalars);

TYPED_TEST(TypedQr, ReconstructsAAndQOrthogonal) {
  using T = TypeParam;
  for (auto [m, n] : {std::pair<index_t, index_t>{24, 24}, {40, 24}}) {
    util::Rng rng(51, static_cast<std::uint64_t>(m * 1000 + n));
    BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(m, n, rng);
    BasicQrFactorization<T> qr(BasicMatrix<T>::copy_of(a));

    BasicMatrix<T> r_full(m, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= std::min(j, m - 1); ++i)
        r_full(i, j) = qr.packed()(i, j);
    qr.apply_q(Side::Left, Trans::No, r_full);
    fsi::testing::expect_close(r_full, a, fsi::testing::Tol<T>::tight,
                               "typed Q R = A");

    BasicMatrix<T> q = qr.q();
    BasicMatrix<T> qtq(m, m);
    gemm(Trans::Yes, Trans::No, T(1), q, q, T(0), qtq);
    fsi::testing::expect_close(qtq, BasicMatrix<T>::identity(m),
                               fsi::testing::Tol<T>::tight, "typed Q^T Q = I");
  }
}

TEST_P(QrShapes, QtAEqualsR) {
  const auto [m, n] = GetParam();
  util::Rng rng(23, static_cast<std::uint64_t>(m * 1000 + n));
  Matrix a = random_matrix(m, n, rng);
  QrFactorization qr(Matrix::copy_of(a));
  Matrix qta = a;
  qr.apply_q(Side::Left, Trans::Yes, qta);
  // Q^T A should be upper triangular with R on top and ~0 below.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < m; ++i) EXPECT_NEAR(qta(i, j), 0.0, 1e-10);
  Matrix r = qr.r();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(qta(i, j), r(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(QrShape{1, 1}, QrShape{5, 3},
                                           QrShape{48, 48}, QrShape{64, 64},
                                           QrShape{100, 50}, QrShape{129, 97},
                                           // The BSOFI panel shape: 2N x N.
                                           QrShape{256, 128}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "n" +
                                  std::to_string(info.param.n);
                         });

TEST(Qr, RightApplicationMatchesExplicitQ) {
  // BSOFI computes G = R^-1 Q^T via right-multiplications by Q_i^T;
  // check C op(Q) against multiplication with the explicit Q.
  const index_t m = 90, n = 45;
  util::Rng rng(24);
  Matrix a = random_matrix(m, n, rng);
  QrFactorization qr(std::move(a));
  Matrix q = qr.q();

  for (Trans trans : {Trans::No, Trans::Yes}) {
    Matrix c = random_matrix(30, m, rng);
    Matrix expected(30, m);
    gemm(Trans::No, trans, 1.0, c, q, 0.0, expected);
    Matrix actual = c;
    qr.apply_q(Side::Right, trans, actual);
    expect_close(actual, expected, 1e-11,
                 trans == Trans::No ? "C Q" : "C Q^T");
  }
}

TEST(Qr, LeftApplicationMatchesExplicitQ) {
  const index_t m = 70, n = 33;
  util::Rng rng(25);
  Matrix a = random_matrix(m, n, rng);
  QrFactorization qr(std::move(a));
  Matrix q = qr.q();

  for (Trans trans : {Trans::No, Trans::Yes}) {
    Matrix c = random_matrix(m, 12, rng);
    Matrix expected(m, 12);
    gemm(trans, Trans::No, 1.0, q, c, 0.0, expected);
    Matrix actual = c;
    qr.apply_q(Side::Left, trans, actual);
    expect_close(actual, expected, 1e-11, "op(Q) C");
  }
}

TEST(Qr, AlreadyTriangularInputGivesZeroTaus) {
  // An upper-triangular A needs no reflections in exact arithmetic;
  // the zero-column guard in larfg must not produce NaNs.
  Matrix a = Matrix::identity(6);
  a(0, 5) = 3.0;
  QrFactorization qr(Matrix::copy_of(a));
  Matrix r_full(6, 6);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i <= j; ++i) r_full(i, j) = qr.packed()(i, j);
  qr.apply_q(Side::Left, Trans::No, r_full);
  expect_close(r_full, a, 1e-13, "triangular input");
}

TEST(Qr, WideMatrixThrows) {
  EXPECT_THROW(QrFactorization(Matrix(3, 5)), util::CheckError);
}

// ---- column-pivoted QR (the fsi::stab workhorse) at both widths ----------

template <typename T>
class TypedQrp : public ::testing::Test {};
TYPED_TEST_SUITE(TypedQrp, Scalars);

TYPED_TEST(TypedQrp, ReconstructsAP) {
  using T = TypeParam;
  for (auto [m, n] : {std::pair<index_t, index_t>{24, 24}, {40, 24}}) {
    util::Rng rng(61, static_cast<std::uint64_t>(m * 1000 + n));
    BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(m, n, rng);
    BasicQrpFactorization<T> qr(BasicMatrix<T>::copy_of(a));

    // Q R should equal A P, i.e. column j of Q R is column jpvt[j] of A.
    BasicMatrix<T> qr_prod(m, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= std::min(j, m - 1); ++i)
        qr_prod(i, j) = qr.packed()(i, j);
    qr.apply_q(Side::Left, Trans::No, qr_prod);

    BasicMatrix<T> ap(m, n);
    for (index_t j = 0; j < n; ++j) {
      const index_t orig = qr.jpvt()[static_cast<std::size_t>(j)];
      for (index_t i = 0; i < m; ++i) ap(i, j) = a(i, orig);
    }
    fsi::testing::expect_close(qr_prod, ap, fsi::testing::Tol<T>::tight,
                               "Q R = A P");

    // jpvt must be a permutation of 0..n-1.
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (index_t j = 0; j < n; ++j) {
      const index_t orig = qr.jpvt()[static_cast<std::size_t>(j)];
      ASSERT_GE(orig, 0);
      ASSERT_LT(orig, n);
      EXPECT_FALSE(seen[static_cast<std::size_t>(orig)]);
      seen[static_cast<std::size_t>(orig)] = true;
    }

    BasicMatrix<T> q = qr.q();
    BasicMatrix<T> qtq(m, m);
    gemm(Trans::Yes, Trans::No, T(1), q, q, T(0), qtq);
    fsi::testing::expect_close(qtq, BasicMatrix<T>::identity(m),
                               fsi::testing::Tol<T>::tight, "QRP Q^T Q = I");
  }
}

TYPED_TEST(TypedQrp, DiagonalOfRIsMonotone) {
  using T = TypeParam;
  const index_t m = 48, n = 48;
  util::Rng rng(62);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(m, n, rng);
  BasicQrpFactorization<T> qr(std::move(a));
  BasicMatrix<T> r = qr.r();
  for (index_t i = 1; i < n; ++i) {
    // Small slack: the downdated-norm pivoting guarantees monotonicity up
    // to rounding in the norm bookkeeping.
    const double prev = std::abs(static_cast<double>(r(i - 1, i - 1)));
    const double cur = std::abs(static_cast<double>(r(i, i)));
    EXPECT_LE(cur, prev * (1.0 + 64.0 * std::numeric_limits<T>::epsilon()))
        << "at i=" << i;
  }
}

TYPED_TEST(TypedQrp, RankRevealingOnGradedMatrix) {
  using T = TypeParam;
  // A = Q1 diag(graded) Q2 with singular values decaying geometrically over
  // kappa = 1e12 (double) / 1e6 (float): the pivoted |diag(R)| must track
  // the singular-value ladder, which unpivoted QR has no reason to do.
  const index_t n = 24;
  const double kappa = std::is_same_v<T, double> ? 1e12 : 1e6;
  util::Rng rng(63);
  BasicQrFactorization<T> q1(fsi::testing::random_matrix_t<T>(n, n, rng));
  BasicQrFactorization<T> q2(fsi::testing::random_matrix_t<T>(n, n, rng));
  std::vector<double> sv(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    sv[static_cast<std::size_t>(i)] =
        std::pow(kappa, -static_cast<double>(i) / (n - 1));
  BasicMatrix<T> a(n, n);
  for (index_t i = 0; i < n; ++i)
    a(i, i) = static_cast<T>(sv[static_cast<std::size_t>(i)]);
  q1.apply_q(Side::Left, Trans::No, a);
  q2.apply_q(Side::Right, Trans::Yes, a);

  BasicQrpFactorization<T> qrp(std::move(a));
  BasicMatrix<T> r = qrp.r();
  // |r_ii| is within a dimension-sized factor of sigma_i (Chan's bound is
  // exponential in n in the worst case, but graded matrices behave far
  // better; 2^i covers it with huge margin at n = 24).
  for (index_t i = 0; i < n; ++i) {
    const double rii = std::abs(static_cast<double>(r(i, i)));
    const double sigma = sv[static_cast<std::size_t>(i)];
    const double slack = std::pow(2.0, static_cast<double>(i) / 2.0 + 4.0);
    EXPECT_LE(rii, sigma * slack) << "i=" << i;
    EXPECT_GE(rii, sigma / slack) << "i=" << i;
  }
  // The headline rank-revealing property: the full kappa shows up as the
  // ratio of first to last pivot.
  const double spread = std::abs(static_cast<double>(r(0, 0))) /
                        std::abs(static_cast<double>(r(n - 1, n - 1)));
  EXPECT_GT(spread, kappa / 1e3);
  EXPECT_LT(spread, kappa * 1e3);
}

TEST(Qrp, WideMatrixThrows) {
  EXPECT_THROW(QrpFactorization(Matrix(3, 5)), util::CheckError);
}

TEST(QrFlops, PanelFactorizationsCreditTheTextbookCount) {
  // BSOFI's panel at N = 36: a 72 x 36 Householder QR performs
  // 2mn^2 - 2n^3/3 flops, counted once by the reflector applications.
  const index_t m = 72, n = 36;
  const double textbook = 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
  util::Rng rng(71);
  const Matrix a = random_matrix(m, n, rng);
  {
    Matrix work = Matrix::copy_of(a);
    std::vector<double> tau;
    const util::flops::Scope scope;
    geqrf<double>(work, tau);
    EXPECT_NEAR(static_cast<double>(scope.elapsed()), textbook,
                0.03 * textbook);
  }
  {
    Matrix work = Matrix::copy_of(a);
    std::vector<double> tau;
    std::vector<index_t> jpvt;
    const util::flops::Scope scope;
    geqp3<double>(work, tau, jpvt);
    EXPECT_NEAR(static_cast<double>(scope.elapsed()), textbook,
                0.03 * textbook);
  }
}

}  // namespace
