/// Algebraic property sweeps over the dense substrate — invariants that any
/// correct implementation must satisfy for *all* inputs, parameterised over
/// sizes and seeds (TEST_P).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/expm.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/dense/qr.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::dense;
using fsi::testing::expect_close;
using fsi::testing::random_dd_matrix;
using fsi::testing::random_matrix;

using Param = std::tuple<index_t, std::uint64_t>;  // size, seed

class DenseProps : public ::testing::TestWithParam<Param> {
 protected:
  index_t n() const { return std::get<0>(GetParam()); }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(DenseProps, MatmulIsAssociative) {
  util::Rng rng(seed());
  Matrix a = random_matrix(n(), n(), rng);
  Matrix b = random_matrix(n(), n(), rng);
  Matrix c = random_matrix(n(), n(), rng);
  Matrix left = matmul(matmul(a, b), c);
  Matrix right = matmul(a, matmul(b, c));
  expect_close(left, right, 1e-11, "(AB)C = A(BC)");
}

TEST_P(DenseProps, IdentityIsNeutral) {
  util::Rng rng(seed() + 1);
  Matrix a = random_matrix(n(), n(), rng);
  expect_close(matmul(a, Matrix::identity(n())), a, 1e-14, "A I = A");
  expect_close(matmul(Matrix::identity(n()), a), a, 1e-14, "I A = A");
}

TEST_P(DenseProps, TransposeReversesProducts) {
  util::Rng rng(seed() + 2);
  Matrix a = random_matrix(n(), n(), rng);
  Matrix b = random_matrix(n(), n(), rng);
  // (AB)^T = B^T A^T, computed via gemm's trans flags.
  Matrix ab_t = transposed(matmul(a, b));
  Matrix bt_at(n(), n());
  gemm(Trans::Yes, Trans::Yes, 1.0, b, a, 0.0, bt_at);
  expect_close(ab_t, bt_at, 1e-12, "(AB)^T = B^T A^T");
}

TEST_P(DenseProps, DeterminantIsMultiplicative) {
  util::Rng rng(seed() + 3);
  Matrix a = random_dd_matrix(n(), rng);
  Matrix b = random_dd_matrix(n(), rng);
  LuFactorization la = LuFactorization::of(a);
  LuFactorization lb = LuFactorization::of(b);
  LuFactorization lab = LuFactorization::of(matmul(a, b));
  EXPECT_NEAR(lab.log_abs_det(), la.log_abs_det() + lb.log_abs_det(),
              1e-8 * std::fabs(lab.log_abs_det()) + 1e-10);
  EXPECT_EQ(lab.sign_det(), la.sign_det() * lb.sign_det());
}

TEST_P(DenseProps, InverseOfInverseIsOriginal) {
  util::Rng rng(seed() + 4);
  Matrix a = random_dd_matrix(n(), rng);
  expect_close(inverse(inverse(a)), a, 1e-9, "(A^-1)^-1 = A");
}

TEST_P(DenseProps, InverseOfTransposeIsTransposeOfInverse) {
  util::Rng rng(seed() + 5);
  Matrix a = random_dd_matrix(n(), rng);
  Matrix left = inverse(transposed(a));
  Matrix right = transposed(inverse(a));
  expect_close(left, right, 1e-9, "(A^T)^-1 = (A^-1)^T");
}

TEST_P(DenseProps, QPreservesFrobeniusNorm) {
  util::Rng rng(seed() + 6);
  Matrix a = random_matrix(n() + 5, n(), rng);
  QrFactorization qr(std::move(a));
  Matrix c = random_matrix(n() + 5, 3, rng);
  const double before = frobenius_norm(c);
  qr.apply_q(Side::Left, Trans::Yes, c);
  EXPECT_NEAR(frobenius_norm(c), before, 1e-10 * before);
}

TEST_P(DenseProps, RDiagonalProductMatchesDeterminantMagnitude) {
  // |det A| = prod |r_ii| for square A = QR.
  util::Rng rng(seed() + 7);
  Matrix a = random_dd_matrix(n(), rng);
  LuFactorization lu = LuFactorization::of(a);
  QrFactorization qr(std::move(a));
  double log_r = 0.0;
  for (index_t i = 0; i < n(); ++i)
    log_r += std::log(std::fabs(qr.packed()(i, i)));
  EXPECT_NEAR(log_r, lu.log_abs_det(), 1e-8 * std::fabs(log_r) + 1e-10);
}

TEST_P(DenseProps, ExpmOfSimilarityIsSimilarityOfExpm) {
  // e^{S A S^-1} = S e^A S^-1.
  const index_t m = std::min<index_t>(n(), 24);  // expm is O(n^3) * many
  util::Rng rng(seed() + 8);
  Matrix a = random_matrix(m, m, rng);
  Matrix s = random_dd_matrix(m, rng);
  Matrix sinv = inverse(s);
  Matrix sas = matmul(s, matmul(a, sinv));
  Matrix left = expm(sas);
  Matrix right = matmul(s, matmul(expm(a), sinv));
  expect_close(left, right, 1e-8, "expm similarity");
}

TEST_P(DenseProps, NormInequalitiesHold) {
  util::Rng rng(seed() + 9);
  Matrix a = random_matrix(n(), n(), rng);
  const double fro = frobenius_norm(a);
  const double one = one_norm(a);
  const double inf = inf_norm(a);
  const double mx = max_abs(a);
  EXPECT_LE(mx, fro + 1e-15);
  EXPECT_LE(fro, std::sqrt(double(n())) * std::max(one, inf) + 1e-12);
  EXPECT_GE(one, mx);
  EXPECT_GE(inf, mx);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DenseProps,
    ::testing::Combine(::testing::Values(index_t{2}, index_t{17}, index_t{64},
                                         index_t{110}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{77})),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += 's';
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---- scalar-generic suite: the invariants at both widths -----------------
// Width-independent algebra: anything that holds for the fp64 kernels must
// hold for their float instantiations at float tolerances.

template <typename T>
class TypedProps : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TypedProps, Scalars);

TYPED_TEST(TypedProps, MatmulAssociativeAndIdentityNeutral) {
  using T = TypeParam;
  const index_t n = 31;
  util::Rng rng(71);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(n, n, rng);
  BasicMatrix<T> b = fsi::testing::random_matrix_t<T>(n, n, rng);
  BasicMatrix<T> c = fsi::testing::random_matrix_t<T>(n, n, rng);
  fsi::testing::expect_close(matmul(matmul(a, b), c), matmul(a, matmul(b, c)),
                             fsi::testing::Tol<T>::tight, "typed (AB)C");
  fsi::testing::expect_close(matmul(a, BasicMatrix<T>::identity(n)), a, 1e-12,
                             "typed A I = A");
}

TYPED_TEST(TypedProps, TransposeReversesProducts) {
  using T = TypeParam;
  const index_t n = 23;
  util::Rng rng(72);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(n, n, rng);
  BasicMatrix<T> b = fsi::testing::random_matrix_t<T>(n, n, rng);
  BasicMatrix<T> ab_t = transposed(matmul(a, b));
  BasicMatrix<T> bt_at(n, n);
  gemm(Trans::Yes, Trans::Yes, T(1), b, a, T(0), bt_at);
  fsi::testing::expect_close(ab_t, bt_at, fsi::testing::Tol<T>::tight,
                             "typed (AB)^T");
}

TYPED_TEST(TypedProps, InverseOfInverseIsOriginal) {
  using T = TypeParam;
  const index_t n = 29;
  util::Rng rng(73);
  BasicMatrix<T> a = fsi::testing::random_dd_matrix_t<T>(n, rng);
  fsi::testing::expect_close(inverse(inverse(a)), a,
                             fsi::testing::Tol<T>::loose, "typed (A^-1)^-1");
}

TYPED_TEST(TypedProps, NormInequalitiesHold) {
  using T = TypeParam;
  const index_t n = 27;
  util::Rng rng(74);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(n, n, rng);
  const double fro = frobenius_norm(a);
  const double one = one_norm(a);
  const double inf = inf_norm(a);
  const double mx = max_abs(a);
  EXPECT_LE(mx, fro + 1e-15);
  EXPECT_LE(fro, std::sqrt(double(n)) * std::max(one, inf) + 1e-6);
  EXPECT_GE(one, mx);
  EXPECT_GE(inf, mx);
  EXPECT_TRUE(all_finite(a));
}

TYPED_TEST(TypedProps, QPreservesFrobeniusNorm) {
  using T = TypeParam;
  const index_t n = 21;
  util::Rng rng(75);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(n + 5, n, rng);
  BasicQrFactorization<T> qr(std::move(a));
  BasicMatrix<T> c = fsi::testing::random_matrix_t<T>(n + 5, 3, rng);
  const double before = frobenius_norm(c);
  qr.apply_q(Side::Left, Trans::Yes, c);
  EXPECT_NEAR(frobenius_norm(c), before,
              fsi::testing::Tol<T>::tight * before);
}

}  // namespace
