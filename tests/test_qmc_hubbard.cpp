/// Tests for the Hubbard-model substrate: HS field, B matrices, M assembly.

#include <gtest/gtest.h>

#include <cmath>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;
using fsi::testing::expect_close;

HubbardModel make_model(index_t nx, index_t l, double u = 2.0, double beta = 1.0) {
  HubbardParams p;
  p.t = 1.0;
  p.u = u;
  p.beta = beta;
  p.l = l;
  return HubbardModel(Lattice::chain(nx), p);
}

TEST(HubbardParams, NuDefinition) {
  HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  // cosh(nu) = e^{U dtau / 2}.
  EXPECT_NEAR(std::cosh(p.nu()), std::exp(p.u * p.dtau() / 2.0), 1e-14);
  EXPECT_NEAR(p.dtau(), 0.125, 1e-15);
}

TEST(HsField, InitialAndFlip) {
  HsField f(3, 4);
  EXPECT_EQ(f.at(0, 0), 1);
  f.flip(1, 2);
  EXPECT_EQ(f.at(1, 2), -1);
  f.flip(1, 2);
  EXPECT_EQ(f.at(1, 2), 1);
  f.set(2, 3, -1);
  EXPECT_EQ(f.at(2, 3), -1);
  EXPECT_THROW(f.set(0, 0, 2), util::CheckError);
}

TEST(HsField, RandomIsPlusMinusOne) {
  util::Rng rng(501);
  HsField f(10, 10, rng);
  int minus = 0;
  for (index_t l = 0; l < 10; ++l)
    for (index_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(f.at(l, i) == 1 || f.at(l, i) == -1);
      if (f.at(l, i) == -1) ++minus;
    }
  EXPECT_GT(minus, 20);
  EXPECT_LT(minus, 80);
}

TEST(HsField, SerializeRoundTrips) {
  util::Rng rng(502);
  HsField f(5, 7, rng);
  auto buf = f.serialize();
  HsField g = HsField::deserialize(5, 7, buf.data(), buf.size());
  for (index_t l = 0; l < 5; ++l)
    for (index_t i = 0; i < 7; ++i) EXPECT_EQ(f.at(l, i), g.at(l, i));
  EXPECT_THROW(HsField::deserialize(5, 6, buf.data(), buf.size()),
               util::CheckError);
}

TEST(HubbardModel, ExpkTimesExpkInvIsIdentity) {
  HubbardModel model = make_model(6, 8);
  Matrix prod = dense::matmul(model.expk(), model.expk_inv());
  expect_close(prod, Matrix::identity(6), 1e-12, "expK expK^-1");
}

TEST(HubbardModel, BMatrixStructure) {
  HubbardModel model = make_model(4, 6);
  util::Rng rng(503);
  HsField h(6, 4, rng);
  // B = expK * diag(e^{sigma nu h}) entry-by-entry.
  for (Spin spin : {Spin::Up, Spin::Down}) {
    Matrix b = model.b_matrix(h, 2, spin);
    for (index_t j = 0; j < 4; ++j) {
      const double f = std::exp(sign_of(spin) * model.params().nu() * h.at(2, j));
      for (index_t i = 0; i < 4; ++i)
        EXPECT_NEAR(b(i, j), model.expk()(i, j) * f, 1e-13);
    }
  }
}

TEST(HubbardModel, BInverseIsAnalyticInverse) {
  util::Rng rng(504);
  HsField h(4, 5, rng);
  for (const Kinetic kinetic : {Kinetic::Exact, Kinetic::Checkerboard}) {
    HubbardParams p;
    p.l = 4;
    p.kinetic = kinetic;
    const HubbardModel model(Lattice::chain(5), p);
    for (Spin spin : {Spin::Up, Spin::Down}) {
      const std::vector<Matrix> inv = model.b_inverses(h, spin);
      ASSERT_EQ(inv.size(), 4u);
      for (index_t l = 0; l < 4; ++l) {
        SCOPED_TRACE("slice " + std::to_string(l));
        const Matrix binv = model.b_matrix_inv(h, l, spin);
        expect_close(inv[static_cast<std::size_t>(l)], binv, 0.0,
                     "b_inverses vs b_matrix_inv");
        expect_close(dense::matmul(model.b_matrix(h, l, spin), binv),
                     Matrix::identity(5), 1e-13, "B B^-1");
      }
    }
  }
  EXPECT_THROW(make_model(5, 3).b_inverses(h, Spin::Up), util::CheckError);
}

TEST(HubbardModel, BuildMMatchesBlockwiseConstruction) {
  HubbardModel model = make_model(3, 5);
  util::Rng rng(505);
  HsField h(5, 3, rng);
  pcyclic::PCyclicMatrix m = model.build_m(h, Spin::Up);
  ASSERT_EQ(m.num_blocks(), 5);
  ASSERT_EQ(m.block_size(), 3);
  for (index_t l = 0; l < 5; ++l)
    expect_close(Matrix::copy_of(m.b(l)), model.b_matrix(h, l, Spin::Up), 0.0,
                 "B block");
}

TEST(HubbardModel, MultiplyHelpersMatchExplicitProducts) {
  HubbardModel model = make_model(4, 3);
  util::Rng rng(506);
  HsField h(3, 4, rng);
  util::Rng rng2(507);
  Matrix g = fsi::testing::random_matrix(4, 4, rng2);

  Matrix expected = dense::matmul(model.b_matrix(h, 1, Spin::Up), g);
  Matrix actual = g;
  model.multiply_b_left(h, 1, Spin::Up, actual);
  expect_close(actual, expected, 1e-12, "B g");

  Matrix expected2 = dense::matmul(g, model.b_matrix_inv(h, 2, Spin::Down));
  Matrix actual2 = g;
  model.multiply_binv_right(h, 2, Spin::Down, actual2);
  expect_close(actual2, expected2, 1e-12, "g B^-1");
}

TEST(HubbardModel, UZeroMakesSpinsIdentical) {
  HubbardModel model = make_model(4, 4, /*u=*/0.0);
  util::Rng rng(508);
  HsField h(4, 4, rng);
  // nu = 0 at U = 0: the HS field decouples and B is spin-independent.
  EXPECT_NEAR(model.params().nu(), 0.0, 1e-14);
  Matrix bu = model.b_matrix(h, 0, Spin::Up);
  Matrix bd = model.b_matrix(h, 0, Spin::Down);
  expect_close(bu, bd, 0.0, "U=0 spin symmetry");
  expect_close(bu, model.expk(), 1e-14, "U=0 B = expK");
}

TEST(HubbardModel, InvalidParametersThrow) {
  HubbardParams p;
  p.l = 0;
  EXPECT_THROW(HubbardModel(Lattice::chain(2), p), util::CheckError);
  p.l = 4;
  p.beta = -1.0;
  EXPECT_THROW(HubbardModel(Lattice::chain(2), p), util::CheckError);
}

}  // namespace
