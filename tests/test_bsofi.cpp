/// Tests for the BSOFI structured orthogonal inversion against dense LU.

#include <gtest/gtest.h>

#include <cmath>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::bsofi;
using fsi::testing::expect_close;

class BsofiSizes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(BsofiSizes, InverseMatchesDenseLu) {
  const auto [n, b] = GetParam();
  util::Rng rng(301, static_cast<std::uint64_t>(n * 100 + b));
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, b, rng);
  Matrix g_bsofi = invert(m);
  Matrix g_lu = invert_dense_lu(m);
  expect_close(g_bsofi, g_lu, 1e-10, "BSOFI vs LU");
}

TEST_P(BsofiSizes, InverseTimesMatrixIsIdentity) {
  const auto [n, b] = GetParam();
  util::Rng rng(302, static_cast<std::uint64_t>(n * 100 + b));
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, b, rng);
  Matrix g = invert(m);
  Matrix prod = dense::matmul(m.to_dense(), g);
  expect_close(prod, Matrix::identity(m.dim()), 1e-10, "M G = I");
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BsofiSizes,
    ::testing::Values(std::make_pair(index_t{3}, index_t{1}),   // degenerate
                      std::make_pair(index_t{3}, index_t{2}),   // corner==sup
                      std::make_pair(index_t{4}, index_t{3}),
                      std::make_pair(index_t{5}, index_t{8}),
                      std::make_pair(index_t{16}, index_t{10}),
                      std::make_pair(index_t{64}, index_t{6})),
    [](const auto& info) {
      std::string name = "N";
      name += std::to_string(info.param.first);
      name += 'b';
      name += std::to_string(info.param.second);
      return name;
    });

TEST(Bsofi, RDiagonalBlocksAreTriangularAndNonsingular) {
  util::Rng rng(303);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(6, 5, rng);
  Bsofi f(m);
  for (index_t i = 0; i < 5; ++i) {
    Matrix r = f.r_diag(i);
    for (index_t j = 0; j < 6; ++j) {
      EXPECT_NE(r(j, j), 0.0) << "R_" << i << " diagonal";
      for (index_t r_i = j + 1; r_i < 6; ++r_i) EXPECT_EQ(r(r_i, j), 0.0);
    }
  }
}

TEST(Bsofi, StructuredRReproducesQtM) {
  // Assemble the structured R from the factorisation accessors and check
  // it matches an (independently computed) dense QR picture: R^-1 from the
  // accessors must invert Q^T M, i.e. M * (R^-1 Q^T) = I was checked above;
  // here we verify the claimed sparsity: R has only diag, superdiag and
  // last-column blocks.
  util::Rng rng(304);
  const index_t n = 4, b = 6;
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, b, rng);
  Bsofi f(m);

  // Assemble R from accessors.
  Matrix r(n * b, n * b);
  for (index_t i = 0; i < b; ++i) {
    Matrix d = f.r_diag(i);
    dense::copy(d, r.block(i * n, i * n, n, n));
    if (i + 1 < b) dense::copy(f.r_sup(i), r.block(i * n, (i + 1) * n, n, n));
    if (i + 2 < b) dense::copy(f.r_last(i), r.block(i * n, (b - 1) * n, n, n));
  }
  // G = R^-1 Q^T  =>  R G should equal Q^T, which is orthogonal: check
  // (R G)(R G)^T = I.
  Matrix g = f.inverse();
  Matrix rg = dense::matmul(r, g);
  Matrix prod(n * b, n * b);
  dense::gemm(dense::Trans::No, dense::Trans::Yes, 1.0, rg, rg, 0.0, prod);
  expect_close(prod, Matrix::identity(n * b), 1e-10, "Q^T orthogonality");
}

TEST(Bsofi, StableOnIllConditionedChains) {
  // Products of many B's with spectral radius > 1 blow up; BSOFI must stay
  // accurate where accuracy is measured against the dense inverse.
  util::Rng rng(305);
  const index_t n = 8, b = 12;
  pcyclic::PCyclicMatrix m(n, b);
  for (index_t i = 0; i < b; ++i) {
    dense::MatrixView bi = m.b(i);
    for (index_t j = 0; j < n; ++j)
      for (index_t r = 0; r < n; ++r) bi(r, j) = rng.uniform(-0.6, 0.6);
    for (index_t d = 0; d < n; ++d) bi(d, d) += 1.2;  // growth factor > 1
  }
  Matrix g_bsofi = invert(m);
  Matrix prod = dense::matmul(m.to_dense(), g_bsofi);
  expect_close(prod, Matrix::identity(m.dim()), 1e-8, "stability");
}

TEST(Bsofi, AccessorBoundsChecked) {
  util::Rng rng(306);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(3, 4, rng);
  Bsofi f(m);
  EXPECT_THROW(f.r_diag(4), util::CheckError);
  EXPECT_THROW(f.r_sup(3), util::CheckError);
  EXPECT_THROW(f.r_last(2), util::CheckError);
}

}  // namespace
