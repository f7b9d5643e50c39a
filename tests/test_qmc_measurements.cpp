/// Tests for the measurement layer: accumulator algebra, equal-time
/// observables against exact free-fermion results, and SPXX consistency
/// between the FSI-selected blocks and a dense inverse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "fsi/dense/expm.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/measurements.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;

TEST(Measurements, MergeAndSerializeRoundTrip) {
  Measurements a(4, 3), b(4, 3);
  a.add_sample(1.0);
  a.add_density(0.5, 0.4);
  a.add_double_occupancy(0.2);
  a.add_kinetic_energy(-1.0);
  a.add_spxx(2, 1, 0.25);
  b.add_sample(-1.0);
  b.add_density(-0.1, -0.2);

  Measurements c = Measurements::deserialize(4, 3, a.serialize());
  c.merge(b);
  EXPECT_DOUBLE_EQ(c.samples(), 2.0);
  EXPECT_DOUBLE_EQ(c.avg_sign(), 0.0);
  // sign_sum = 0: estimators must not divide by zero.
  EXPECT_DOUBLE_EQ(c.density(), 0.0);

  Measurements d = Measurements::deserialize(4, 3, a.serialize());
  EXPECT_DOUBLE_EQ(d.avg_sign(), 1.0);
  EXPECT_DOUBLE_EQ(d.density_up(), 0.5);
  EXPECT_DOUBLE_EQ(d.density(), 0.9);
  EXPECT_DOUBLE_EQ(d.double_occupancy(), 0.2);
  EXPECT_DOUBLE_EQ(d.local_moment(), 0.9 - 0.4);
  EXPECT_DOUBLE_EQ(d.spxx(2, 1), 0.25);
}

TEST(Measurements, ShapeMismatchThrows) {
  Measurements a(4, 3), b(5, 3);
  EXPECT_THROW(a.merge(b), util::CheckError);
  EXPECT_THROW(Measurements::deserialize(4, 4, a.serialize()), util::CheckError);
  EXPECT_THROW(a.spxx(4, 0), util::CheckError);
}

/// Build the full FSI block set for one spin of one configuration.
struct Blocks {
  pcyclic::SelectedInversion diag, rows, cols;
};
Blocks fsi_blocks(const HubbardModel& model, const HsField& h, Spin spin,
                  index_t c, index_t q) {
  const pcyclic::PCyclicMatrix m = model.build_m(h, spin);
  const pcyclic::BlockOps ops(m);
  const pcyclic::Selection sel(m.num_blocks(), c, q);
  const auto reduced = selinv::cluster(m, c, q);
  const auto gtilde = bsofi::invert(reduced);
  return Blocks{
      selinv::wrap(ops, gtilde, pcyclic::Pattern::AllDiagonals, sel),
      selinv::wrap(ops, gtilde, pcyclic::Pattern::Rows, sel),
      selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel)};
}

TEST(EqualTimeObservables, UZeroMatchesExactFreeFermions) {
  // At U = 0: G is h-independent, n_sigma = 1 - tr(G)/N exactly, and
  // d = <n_up n_dn> = n_up * n_dn site-resolved.
  const index_t nx = 4, l = 8;
  HubbardParams p;
  p.t = 1.0;
  p.u = 0.0;
  p.beta = 2.0;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(701);
  HsField h(l, nx, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, 4, 1);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 4, 1);

  Measurements meas(l, model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  accumulate_equal_time(model.lattice(), up.diag, dn.diag, p.t, 1.0, true, meas);

  // Exact: G = (I + e^{beta t K})^-1.
  Matrix kb(nx, nx);
  dense::copy(model.lattice().adjacency(), kb);
  dense::scal(p.t * p.beta, kb);
  Matrix a = dense::expm(kb);
  for (index_t d = 0; d < nx; ++d) a(d, d) += 1.0;
  Matrix g = dense::inverse(a);

  double n_exact = 0.0, docc_exact = 0.0, kin_exact = 0.0;
  for (index_t i = 0; i < nx; ++i) {
    n_exact += (1.0 - g(i, i));
    docc_exact += (1.0 - g(i, i)) * (1.0 - g(i, i));
    for (index_t j : model.lattice().neighbors(i))
      kin_exact += p.t * 2.0 * g(j, i);  // both spins
  }
  n_exact /= nx;
  docc_exact /= nx;
  kin_exact /= nx;

  EXPECT_NEAR(meas.density_up(), n_exact, 1e-9);
  EXPECT_NEAR(meas.density_down(), n_exact, 1e-9);
  EXPECT_NEAR(meas.double_occupancy(), docc_exact, 1e-9);
  EXPECT_NEAR(meas.kinetic_energy(), kin_exact, 1e-9);
  // Half filling at mu = 0: n = 1 by particle-hole symmetry.
  EXPECT_NEAR(meas.density(), 1.0, 1e-9);
}

TEST(EqualTimeObservables, AfStructureFactorUZeroMatchesWick) {
  // At U = 0, m_i = 0 per configuration and S_AF reduces to the pure Wick
  // term sum_ij s_i s_j sum_s (delta_ij - G(j,i)) G(i,j) / N with the exact
  // free-fermion G.
  const index_t l = 4;
  HubbardParams p;
  p.t = 1.0;
  p.u = 0.0;
  p.beta = 1.0;
  p.l = l;
  HubbardModel model(Lattice::rectangle(2, 2), p);  // N = 4, bipartite
  util::Rng rng(705);
  HsField h(l, 4, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, 2, 0);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 2, 0);
  Measurements meas(l, model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  accumulate_equal_time(model.lattice(), up.diag, dn.diag, p.t, 1.0, true, meas);

  Matrix kb(4, 4);
  dense::copy(model.lattice().adjacency(), kb);
  dense::scal(p.t * p.beta, kb);
  Matrix a = dense::expm(kb);
  for (index_t d = 0; d < 4; ++d) a(d, d) += 1.0;
  Matrix g = dense::inverse(a);

  double expected = 0.0;
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) {
      const double delta = (i == j) ? 1.0 : 0.0;
      expected += model.lattice().parity(i) * model.lattice().parity(j) * 2.0 *
                  (delta - g(j, i)) * g(i, j);
    }
  expected /= 4.0;
  EXPECT_NEAR(meas.af_structure_factor(), expected, 1e-9);
  EXPECT_GT(meas.af_structure_factor(), 0.0);  // Pauli correlations are AF
}

TEST(EqualTimeObservables, AfSerializeRoundTripsThroughBuffer) {
  Measurements a(3, 2);
  a.add_sample(1.0);
  a.add_af_structure_factor(0.375);
  Measurements b = Measurements::deserialize(3, 2, a.serialize());
  EXPECT_DOUBLE_EQ(b.af_structure_factor(), 0.375);
}

TEST(Spxx, MatchesDenseInverseComputation) {
  // SPXX accumulated from FSI rows+columns must equal the same double sum
  // evaluated from the blocks of a dense NL x NL inverse.
  const index_t nx = 3, l = 6, c = 2, q = 1;
  HubbardParams p;
  p.t = 1.0;
  p.u = 2.0;
  p.beta = 1.5;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(702);
  HsField h(l, nx, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, c, q);
  Blocks dn = fsi_blocks(model, h, Spin::Down, c, q);
  const index_t dmax = model.lattice().num_distance_classes();

  Measurements meas(l, dmax);
  meas.add_sample(1.0);
  accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows, dn.cols, 1.0,
                  true, meas);

  // Dense reference.
  Matrix gu = pcyclic::full_inverse_dense(model.build_m(h, Spin::Up));
  Matrix gd = pcyclic::full_inverse_dense(model.build_m(h, Spin::Down));
  const pcyclic::Selection sel(l, c, q);
  const auto selected = sel.indices();
  const auto& sizes = model.lattice().distance_class_sizes();

  for (index_t tau = 0; tau < l; ++tau) {
    std::vector<double> ref(static_cast<std::size_t>(dmax), 0.0);
    for (index_t k : selected) {
      const index_t ell = ((k - tau) % l + l) % l;
      Matrix gu_kl = pcyclic::dense_block(gu, nx, k, ell);
      Matrix gd_lk = pcyclic::dense_block(gd, nx, ell, k);
      Matrix gd_kl = pcyclic::dense_block(gd, nx, k, ell);
      Matrix gu_lk = pcyclic::dense_block(gu, nx, ell, k);
      for (index_t j = 0; j < nx; ++j)
        for (index_t i = 0; i < nx; ++i)
          ref[static_cast<std::size_t>(
              model.lattice().distance_class(i, j))] +=
              gu_kl(i, j) * gd_lk(j, i) + gd_kl(i, j) * gu_lk(j, i);
    }
    for (index_t d = 0; d < dmax; ++d) {
      const double expected =
          ref[static_cast<std::size_t>(d)] /
          (2.0 * static_cast<double>(selected.size()) *
           static_cast<double>(sizes[static_cast<std::size_t>(d)]));
      EXPECT_NEAR(meas.spxx(tau, d), expected, 1e-9)
          << "tau=" << tau << " d=" << d;
    }
  }
}

TEST(Spxx, SerialAndParallelAgree) {
  const index_t nx = 3, l = 4;
  HubbardParams p;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(703);
  HsField h(l, nx, rng);
  Blocks up = fsi_blocks(model, h, Spin::Up, 2, 0);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 2, 0);
  const index_t dmax = model.lattice().num_distance_classes();

  Measurements par(l, dmax), ser(l, dmax);
  par.add_sample(1.0);
  ser.add_sample(1.0);
  accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows, dn.cols, 1.0,
                  true, par);
  accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows, dn.cols, 1.0,
                  false, ser);
  for (index_t tau = 0; tau < l; ++tau)
    for (index_t d = 0; d < dmax; ++d)
      EXPECT_NEAR(par.spxx(tau, d), ser.spxx(tau, d), 1e-13);
}

/// D(i, j) by the rectangle's folded-displacement formula.
index_t class_by_formula(const Lattice& lat, index_t i, index_t j) {
  index_t dx = std::abs(lat.x_of(i) - lat.x_of(j));
  dx = std::min(dx, lat.nx() - dx);
  index_t dy = std::abs(lat.y_of(i) - lat.y_of(j));
  dy = std::min(dy, lat.ny() - dy);
  return dx + dy * (lat.nx() / 2 + 1);
}

/// The staggering sign (-1)^(x+y) by formula.
int parity_by_formula(const Lattice& lat, index_t s) {
  return ((lat.x_of(s) + lat.y_of(s)) % 2 == 0) ? 1 : -1;
}

TEST(Spxx, TableLookupsMatchPerElementFormulaLoop) {
  // accumulate_spxx and accumulate_equal_time read D(i, j) and the parity
  // from the lattice's tables; the same loops written with the formulas,
  // in the same order, must give the same sums bit for bit.
  const index_t l = 6, c = 2, q = 1;
  HubbardParams p;
  p.l = l;
  HubbardModel model(Lattice::rectangle(3, 4), p);  // odd and even extents
  const Lattice& lat = model.lattice();
  const index_t n = lat.num_sites();
  util::Rng rng(706);
  HsField h(l, n, rng);
  Blocks up = fsi_blocks(model, h, Spin::Up, c, q);
  Blocks dn = fsi_blocks(model, h, Spin::Down, c, q);
  const index_t dmax = lat.num_distance_classes();
  const double sign = -1.0;

  Measurements got(l, dmax);
  accumulate_spxx(lat, up.rows, up.cols, dn.rows, dn.cols, sign, false, got);
  accumulate_equal_time(lat, up.diag, dn.diag, p.t, sign, false, got);

  Measurements want(l, dmax);
  std::vector<index_t> sizes(static_cast<std::size_t>(dmax), 0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      ++sizes[static_cast<std::size_t>(class_by_formula(lat, i, j))];
  const auto selected = up.rows.selection().indices();
  const double c_tau = static_cast<double>(selected.size());
  for (index_t k : selected)
    for (index_t tau = 0; tau < l; ++tau) {
      const index_t ell = ((k - tau) % l + l) % l;
      const Matrix& gu_kl = up.rows.at(k, ell);
      const Matrix& gd_lk = dn.cols.at(ell, k);
      const Matrix& gd_kl = dn.rows.at(k, ell);
      const Matrix& gu_lk = up.cols.at(ell, k);
      std::vector<double> buf(static_cast<std::size_t>(dmax), 0.0);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) {
          // Same expression as accumulate_spxx, so FMA contraction (if the
          // build enables it) matches too.
          const double v =
              gu_kl(i, j) * gd_lk(j, i) + gd_kl(i, j) * gu_lk(j, i);
          buf[static_cast<std::size_t>(class_by_formula(lat, i, j))] += v;
        }
      for (index_t d = 0; d < dmax; ++d)
        want.add_spxx(tau, d,
                      sign * buf[static_cast<std::size_t>(d)] /
                          (2.0 * c_tau *
                           static_cast<double>(
                               sizes[static_cast<std::size_t>(d)])));
    }

  double den_up = 0.0, den_dn = 0.0, docc = 0.0, kin = 0.0, af = 0.0;
  for (const auto& [k, kk] : up.diag.keys()) {
    const Matrix& gu = up.diag.at(k, kk);
    const Matrix& gd = dn.diag.at(k, kk);
    for (index_t i = 0; i < n; ++i) {
      const double nu_i = 1.0 - gu(i, i);
      const double nd_i = 1.0 - gd(i, i);
      den_up += nu_i;
      den_dn += nd_i;
      docc += nu_i * nd_i;
      for (index_t j : lat.neighbors(i)) kin += p.t * (gu(j, i) + gd(j, i));
      const double m_i = nu_i - nd_i;
      for (index_t j = 0; j < n; ++j) {
        const double m_j = (1.0 - gu(j, j)) - (1.0 - gd(j, j));
        const double delta = (i == j) ? 1.0 : 0.0;
        const double wick = (delta - gu(j, i)) * gu(i, j) +
                            (delta - gd(j, i)) * gd(i, j);
        af += parity_by_formula(lat, i) * parity_by_formula(lat, j) *
              (m_i * m_j + wick);
      }
    }
  }
  const double norm =
      static_cast<double>(up.diag.keys().size()) * static_cast<double>(n);
  want.add_density(sign * den_up / norm, sign * den_dn / norm);
  want.add_double_occupancy(sign * docc / norm);
  want.add_kinetic_energy(sign * kin / norm);
  want.add_af_structure_factor(sign * af / norm);

  EXPECT_EQ(got.serialize(), want.serialize());
}

TEST(Spxx, MismatchedPatternsThrow) {
  const index_t nx = 2, l = 4;
  HubbardParams p;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(704);
  HsField h(l, nx, rng);
  Blocks up = fsi_blocks(model, h, Spin::Up, 2, 0);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 2, 1);  // different q!
  Measurements meas(l, model.lattice().num_distance_classes());
  EXPECT_THROW(accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows,
                               dn.cols, 1.0, true, meas),
               util::CheckError);
  EXPECT_THROW(accumulate_spxx(model.lattice(), up.cols, up.rows, dn.rows,
                               dn.cols, 1.0, true, meas),
               util::CheckError);
}

}  // namespace
