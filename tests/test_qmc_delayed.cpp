/// Tests for the delayed-update mode of the equal-time Green engine: the
/// blocked GEMM application must be numerically equivalent to immediate
/// rank-1 updates for the whole sweep protocol.

#include <gtest/gtest.h>

#include "fsi/dense/norms.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/greens.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;
using fsi::testing::expect_close;

HubbardModel make_model(index_t nx, index_t l) {
  HubbardParams p;
  p.u = 3.0;
  p.beta = 1.5;
  p.l = l;
  return HubbardModel(Lattice::chain(nx), p);
}

TEST(DelayedUpdates, RatiosMatchImmediateModeThroughAFullSweep) {
  const index_t n = 8, l = 6;
  HubbardModel model = make_model(n, l);
  util::Rng rng(921);
  HsField h_imm(l, n, rng);
  HsField h_del = h_imm;

  EqualTimeGreens imm(model, h_imm, Spin::Up, 3, 100, /*delay=*/0);
  EqualTimeGreens del(model, h_del, Spin::Up, 3, 100, /*delay=*/4);
  EXPECT_EQ(del.delay_depth(), 4);

  // Deterministic pseudo-sweep: same acceptance rule on both engines.
  for (index_t s = 0; s < l; ++s) {
    for (index_t i = 0; i < n; ++i) {
      const double a1 = imm.flip_alpha(i);
      const double a2 = del.flip_alpha(i);
      ASSERT_DOUBLE_EQ(a1, a2);
      const double r1 = imm.flip_ratio(i, a1);
      const double r2 = del.flip_ratio(i, a2);
      ASSERT_NEAR(r1, r2, 1e-10) << "slice " << s << " site " << i;
      if (r1 > 0.8) {
        imm.apply_flip(i, a1, r1);
        del.apply_flip(i, a2, r2);
        h_imm.flip(imm.slice(), i);
        h_del.flip(del.slice(), i);
      }
    }
    imm.advance();
    del.advance();
    expect_close(del.g(), imm.g(), 1e-9, "after advance");
  }
}

TEST(DelayedUpdates, FlushHappensAtDepth) {
  const index_t n = 6, l = 4;
  HubbardModel model = make_model(n, l);
  util::Rng rng(922);
  HsField h(l, n, rng);
  EqualTimeGreens eng(model, h, Spin::Down, 2, 100, /*delay=*/3);

  for (index_t i = 0; i < 3; ++i) {
    const double a = eng.flip_alpha(i);
    const double r = eng.flip_ratio(i, a);
    eng.apply_flip(i, a, r);
    h.flip(eng.slice(), i);
  }
  // Third update triggered the flush.
  EXPECT_EQ(eng.pending_updates(), 0);

  const double a = eng.flip_alpha(3);
  eng.apply_flip(3, a, eng.flip_ratio(3, a));
  h.flip(eng.slice(), 3);
  EXPECT_EQ(eng.pending_updates(), 1);

  // g() flushes on demand and matches a fresh recompute.
  EqualTimeGreens fresh(model, h, Spin::Down, 2, 100, 0);
  expect_close(eng.g(), fresh.g(), 1e-10, "flush-on-read");
  EXPECT_EQ(eng.pending_updates(), 0);
}

TEST(DelayedUpdates, FullDqmcRunsIdenticallyWithDelay) {
  // The production sweep must produce the same Markov chain with and
  // without delay (ratios are identical up to rounding; acceptance uses
  // the same RNG stream).
  HubbardParams p;
  p.u = 2.0;
  p.l = 8;
  HubbardModel model(Lattice::rectangle(3, 2), p);

  auto run_with = [&](index_t delay) {
    util::Rng rng(77);
    HsField field(p.l, model.num_sites(), rng);
    EqualTimeGreens g_up(model, field, Spin::Up, 4, 8, delay);
    EqualTimeGreens g_dn(model, field, Spin::Down, 4, 8, delay);
    double sign = 1.0;
    index_t acc = 0;
    for (int sweep = 0; sweep < 4; ++sweep)
      acc += metropolis_sweep(model, field, g_up, g_dn, rng, sign);
    return std::make_pair(acc, Matrix::copy_of(g_up.g().view()));
  };

  auto [acc0, g0] = run_with(0);
  auto [acc8, g8] = run_with(8);
  EXPECT_EQ(acc0, acc8);
  expect_close(g8, g0, 1e-8, "delayed vs immediate DQMC");
}

TEST(DelayedUpdates, InvalidDepthRejected) {
  const index_t n = 4, l = 4;
  HubbardModel model = make_model(n, l);
  util::Rng rng(923);
  HsField h(l, n, rng);
  EXPECT_THROW(EqualTimeGreens(model, h, Spin::Up, 2, 8, -1), util::CheckError);
}

}  // namespace
