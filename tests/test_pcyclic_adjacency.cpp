/// Exhaustive tests of the adjacency relations (Eqs. 4-7): every move from
/// every (k, l) position — generic, diagonal, sub-diagonal, first/last
/// row/column and the four corners — is checked against a dense inverse,
/// for BlockOps that invert random blocks and for BlockOps that take a
/// Hubbard model's closed-form inverses.

#include <gtest/gtest.h>

#include "fsi/dense/norms.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::pcyclic;
using fsi::testing::expect_close;
using fsi::testing::kFloatTol;

struct AdjacencyFixtureData {
  PCyclicMatrix m;
  Matrix gdense;
  BlockOps ops;

  AdjacencyFixtureData(index_t n, index_t l, std::uint64_t seed)
      : m(make(n, l, seed)), gdense(full_inverse_dense(m)), ops(m) {}

  static PCyclicMatrix make(index_t n, index_t l, std::uint64_t seed) {
    util::Rng rng(seed);
    return PCyclicMatrix::random(n, l, rng);
  }

  Matrix g(index_t k, index_t l) const {
    return dense_block(gdense, m.block_size(), k, l);
  }
};

/// M^up of a Hubbard model on an n-site chain with l slices, its dense
/// inverse, and BlockOps from the model's closed-form B^-1.
struct HubbardFixtureData {
  qmc::HubbardModel model;
  qmc::HsField field;
  PCyclicMatrix m;
  Matrix gdense;
  BlockOps ops;

  HubbardFixtureData(index_t n, index_t l, qmc::Kinetic kinetic,
                     std::uint64_t seed)
      : model(qmc::Lattice::chain(n), params(l, kinetic)),
        field(make_field(l, n, seed)),
        m(model.build_m(field, qmc::Spin::Up)),
        gdense(full_inverse_dense(m)),
        ops(m, model.b_inverses(field, qmc::Spin::Up)) {}

  static qmc::HubbardParams params(index_t l, qmc::Kinetic kinetic) {
    qmc::HubbardParams p;  // U = 2, beta = 1
    p.l = l;
    p.kinetic = kinetic;
    return p;
  }
  static qmc::HsField make_field(index_t l, index_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return qmc::HsField(l, n, rng);
  }

  Matrix g(index_t k, index_t l) const {
    return dense_block(gdense, m.block_size(), k, l);
  }
};

class AdjacencyAllMoves
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(AdjacencyAllMoves, HubbardInversesMatchDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  for (const qmc::Kinetic kinetic :
       {qmc::Kinetic::Exact, qmc::Kinetic::Checkerboard}) {
    SCOPED_TRACE(kinetic == qmc::Kinetic::Exact ? "Exact" : "Checkerboard");
    const HubbardFixtureData f(n, l, kinetic, 209);
    const BlockOps inverted(f.m);
    const BlockOpsF ops_f(f.m, f.model.b_inverses(f.field, qmc::Spin::Up));
    for (index_t i = 0; i < l; ++i) {
      expect_close(f.ops.inv(i), inverted.inv(i), 1e-13,
                   "closed-form vs LU inverse");
      expect_close(dense::promoted(ops_f.inv(i)), f.ops.inv(i), kFloatTol,
                   "demoted inverse");
    }
    for (index_t k = 0; k < l; ++k)
      for (index_t col = 0; col < l; ++col) {
        SCOPED_TRACE("from (" + std::to_string(k) + "," +
                     std::to_string(col) + ")");
        const Matrix g = f.g(k, col);
        expect_close(f.ops.up(k, col, g), f.g(f.m.wrap(k - 1), col), 1e-9,
                     "up");
        expect_close(f.ops.down(k, col, g), f.g(f.m.wrap(k + 1), col), 1e-9,
                     "down");
        expect_close(f.ops.left(k, col, g), f.g(k, f.m.wrap(col - 1)), 1e-9,
                     "left");
        expect_close(f.ops.right(k, col, g), f.g(k, f.m.wrap(col + 1)), 1e-9,
                     "right");
        const dense::MatrixF g_f = dense::demoted(g);
        expect_close(dense::promoted(ops_f.up(k, col, g_f)),
                     f.ops.up(k, col, g), kFloatTol, "fp32 up");
        expect_close(dense::promoted(ops_f.down(k, col, g_f)),
                     f.ops.down(k, col, g), kFloatTol, "fp32 down");
        expect_close(dense::promoted(ops_f.left(k, col, g_f)),
                     f.ops.left(k, col, g), kFloatTol, "fp32 left");
        expect_close(dense::promoted(ops_f.right(k, col, g_f)),
                     f.ops.right(k, col, g), kFloatTol, "fp32 right");
      }
  }
}

TEST_P(AdjacencyAllMoves, UpMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 201);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.up(k, col, f.g(k, col));
      expect_close(moved, f.g(f.m.wrap(k - 1), col), 1e-9,
                   ("up from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, DownMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 202);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.down(k, col, f.g(k, col));
      expect_close(moved, f.g(f.m.wrap(k + 1), col), 1e-9,
                   ("down from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, LeftMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 203);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.left(k, col, f.g(k, col));
      expect_close(moved, f.g(k, f.m.wrap(col - 1)), 1e-9,
                   ("left from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, RightMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 204);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.right(k, col, f.g(k, col));
      expect_close(moved, f.g(k, f.m.wrap(col + 1)), 1e-9,
                   ("right from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AdjacencyAllMoves,
    ::testing::Values(std::make_pair(index_t{3}, index_t{2}),
                      std::make_pair(index_t{4}, index_t{3}),
                      std::make_pair(index_t{3}, index_t{8}),
                      std::make_pair(index_t{7}, index_t{5})),
    [](const auto& info) {
      return "N" + std::to_string(info.param.first) + "L" +
             std::to_string(info.param.second);
    });

TEST(Adjacency, RoundTripsAreConsistent) {
  // up then down (and left then right) must return the original block.
  AdjacencyFixtureData f(4, 6, 205);
  for (index_t k : {index_t{0}, index_t{2}, index_t{5}}) {
    for (index_t col : {index_t{0}, index_t{3}, index_t{5}}) {
      Matrix g0 = f.g(k, col);
      Matrix up = f.ops.up(k, col, g0);
      Matrix back = f.ops.down(f.m.wrap(k - 1), col, up);
      expect_close(back, g0, 1e-8, "up/down round trip");

      Matrix left = f.ops.left(k, col, g0);
      Matrix back2 = f.ops.right(k, f.m.wrap(col - 1), left);
      expect_close(back2, g0, 1e-8, "left/right round trip");
    }
  }
}

TEST(Adjacency, WholeColumnFromSingleSeed) {
  // Walking up L-1 times from one seed must reconstruct the whole column —
  // the essence of the paper's Alg. 2.
  AdjacencyFixtureData f(5, 7, 206);
  const index_t col = 4, seed_row = 2;
  Matrix cur = f.g(seed_row, col);
  index_t k = seed_row;
  for (index_t step = 0; step < f.m.num_blocks() - 1; ++step) {
    cur = f.ops.up(k, col, cur);
    k = f.m.wrap(k - 1);
    expect_close(cur, f.g(k, col), 1e-8, "column walk");
  }
}

TEST(Adjacency, WholeRowFromSingleSeed) {
  AdjacencyFixtureData f(5, 7, 207);
  const index_t row = 6, seed_col = 0;
  Matrix cur = f.g(row, seed_col);
  index_t col = seed_col;
  for (index_t step = 0; step < f.m.num_blocks() - 1; ++step) {
    cur = f.ops.right(row, col, cur);
    col = f.m.wrap(col + 1);
    expect_close(cur, f.g(row, col), 1e-8, "row walk");
  }
}

TEST(Adjacency, InverseAccessorMatchesBlocks) {
  AdjacencyFixtureData f(4, 3, 208);
  for (index_t i = 0; i < 3; ++i) {
    Matrix prod = dense::matmul(f.m.b(i), f.ops.inv(i));
    expect_close(prod, Matrix::identity(4), 1e-10, "B B^-1 = I");
  }
  EXPECT_THROW(f.ops.inv(3), util::CheckError);
  EXPECT_THROW(f.ops.inv(-1), util::CheckError);
}

TEST(Adjacency, SuppliedInversesMustBeOneNxNPerBlock) {
  util::Rng rng(210);
  const PCyclicMatrix m = PCyclicMatrix::random(3, 4, rng);
  const std::vector<Matrix> too_few(3, Matrix::identity(3));
  const std::vector<Matrix> too_many(5, Matrix::identity(3));
  const std::vector<Matrix> wrong_shape = [] {
    std::vector<Matrix> v(4, Matrix::identity(3));
    v[2] = Matrix(3, 2);
    return v;
  }();
  for (const auto* inv : {&too_few, &too_many, &wrong_shape}) {
    EXPECT_THROW((BlockOps(m, *inv)), util::CheckError);
    EXPECT_THROW((BlockOpsF(m, *inv)), util::CheckError);
  }
  EXPECT_NO_THROW((BlockOps(m, std::vector<Matrix>(4, Matrix::identity(3)))));
}

}  // namespace
