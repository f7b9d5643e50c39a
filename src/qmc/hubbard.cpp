#include "fsi/qmc/hubbard.hpp"

#include "fsi/dense/blas.hpp"
#include "fsi/dense/expm.hpp"
#include "fsi/qmc/checkerboard.hpp"

namespace fsi::qmc {

HsField::HsField(index_t l, index_t n) : l_(l), n_(n) {
  FSI_CHECK(l > 0 && n > 0, "HsField: need positive dimensions");
  h_.assign(static_cast<std::size_t>(l) * n, 1);
}

HsField::HsField(index_t l, index_t n, util::Rng& rng) : HsField(l, n) {
  for (auto& v : h_) v = static_cast<std::int8_t>(rng.spin());
}

void HsField::set(index_t slice, index_t site, int value) {
  FSI_CHECK(value == 1 || value == -1, "HsField: values must be +-1");
  h_[index(slice, site)] = static_cast<std::int8_t>(value);
}

std::vector<double> HsField::serialize() const {
  std::vector<double> out(h_.size());
  for (std::size_t i = 0; i < h_.size(); ++i) out[i] = h_[i];
  return out;
}

HsField HsField::deserialize(index_t l, index_t n, const double* data,
                             std::size_t len) {
  FSI_CHECK(len == static_cast<std::size_t>(l) * static_cast<std::size_t>(n),
            "HsField::deserialize: length mismatch");
  HsField f(l, n);
  for (std::size_t i = 0; i < len; ++i) {
    FSI_CHECK(data[i] == 1.0 || data[i] == -1.0,
              "HsField::deserialize: values must be +-1");
    f.h_[i] = static_cast<std::int8_t>(data[i]);
  }
  return f;
}

HubbardModel::HubbardModel(Lattice lattice, HubbardParams params)
    : lattice_(std::move(lattice)), params_(params) {
  FSI_CHECK(params_.l > 0, "HubbardModel: need at least one time slice");
  FSI_CHECK(params_.beta > 0.0, "HubbardModel: beta must be positive");
  FSI_CHECK(params_.u >= 0.0, "HubbardModel: repulsive U only");
  const index_t n = lattice_.num_sites();
  if (params_.kinetic == Kinetic::Exact) {
    Matrix kd(n, n);
    dense::copy(lattice_.adjacency(), kd);
    dense::scal(params_.t * params_.dtau(), kd);
    expk_ = dense::expm(kd);
    dense::scal(-1.0, kd);
    expk_inv_ = dense::expm(kd);
  } else {
    // Checkerboard: assemble the bond-split propagator densely once so the
    // rest of the pipeline is agnostic to the kinetic realisation.  (A
    // production sweep would apply the bonds directly; this library keeps
    // the dense-blocks interface of the paper.)
    CheckerboardExpK cb(lattice_, params_.t * params_.dtau());
    expk_ = cb.to_dense();
    expk_inv_ = Matrix::identity(n);
    cb.apply_inverse_left(expk_inv_);
  }
}

std::vector<double> HubbardModel::hs_diagonal(const HsField& h, index_t slice,
                                              Spin spin) const {
  // h = +-1, so a spin has two factors; every site picks one of them.
  const double up = hs_factor(1, spin), down = hs_factor(-1, spin);
  std::vector<double> f(static_cast<std::size_t>(num_sites()));
  for (index_t i = 0; i < num_sites(); ++i)
    f[static_cast<std::size_t>(i)] = (h.at(slice, i) > 0) ? up : down;
  return f;
}

Matrix HubbardModel::b_matrix(const HsField& h, index_t slice, Spin spin) const {
  // B = expK * diag(f): scale the columns of expK.
  const index_t n = num_sites();
  const std::vector<double> f = hs_diagonal(h, slice, spin);
  Matrix b(n, n);
  dense::copy(expk_, b);
  for (index_t j = 0; j < n; ++j) {
    const double fj = f[static_cast<std::size_t>(j)];
    double* col = b.view().col(j);
    for (index_t i = 0; i < n; ++i) col[i] *= fj;
  }
  return b;
}

Matrix HubbardModel::b_matrix_inv(const HsField& h, index_t slice,
                                  Spin spin) const {
  // B^-1 = diag(1 / f) * expK^-1: scale the rows of expK^-1, one column
  // sweep at unit stride.
  const index_t n = num_sites();
  std::vector<double> r = hs_diagonal(h, slice, spin);
  for (double& v : r) v = 1.0 / v;
  Matrix b(n, n);
  for (index_t j = 0; j < n; ++j) {
    const double* src = expk_inv_.view().col(j);
    double* dst = b.view().col(j);
    for (index_t i = 0; i < n; ++i)
      dst[i] = src[i] * r[static_cast<std::size_t>(i)];
  }
  return b;
}

pcyclic::PCyclicMatrix HubbardModel::build_m(const HsField& h, Spin spin) const {
  FSI_CHECK(h.num_slices() == params_.l && h.num_sites() == num_sites(),
            "build_m: HS field shape mismatch");
  std::vector<Matrix> blocks;
  blocks.reserve(static_cast<std::size_t>(params_.l));
  for (index_t l = 0; l < params_.l; ++l) blocks.push_back(b_matrix(h, l, spin));
  return pcyclic::PCyclicMatrix(std::move(blocks));
}

std::vector<Matrix> HubbardModel::b_inverses(const HsField& h, Spin spin) const {
  FSI_CHECK(h.num_slices() == params_.l && h.num_sites() == num_sites(),
            "b_inverses: HS field shape mismatch");
  std::vector<Matrix> inv;
  inv.reserve(static_cast<std::size_t>(params_.l));
  for (index_t l = 0; l < params_.l; ++l)
    inv.push_back(b_matrix_inv(h, l, spin));
  return inv;
}

void HubbardModel::multiply_b_left(const HsField& h, index_t slice, Spin spin,
                                   Matrix& g) const {
  // g := expK * (diag(f) g).
  const index_t n = num_sites();
  FSI_CHECK(g.rows() == n, "multiply_b_left: dimension mismatch");
  const std::vector<double> f = hs_diagonal(h, slice, spin);
  for (index_t j = 0; j < g.cols(); ++j) {
    double* col = g.view().col(j);
    for (index_t i = 0; i < n; ++i) col[i] *= f[static_cast<std::size_t>(i)];
  }
  Matrix out(n, g.cols());
  dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, expk_, g, 0.0, out);
  g = std::move(out);
}

void HubbardModel::multiply_binv_right(const HsField& h, index_t slice,
                                       Spin spin, Matrix& g) const {
  // g := (g diag(1 / f)) * expK^-1.
  const index_t n = num_sites();
  FSI_CHECK(g.cols() == n, "multiply_binv_right: dimension mismatch");
  const std::vector<double> f = hs_diagonal(h, slice, spin);
  for (index_t j = 0; j < n; ++j) {
    const double r = 1.0 / f[static_cast<std::size_t>(j)];
    double* col = g.view().col(j);
    for (index_t i = 0; i < g.rows(); ++i) col[i] *= r;
  }
  Matrix out(g.rows(), n);
  dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, g, expk_inv_, 0.0, out);
  g = std::move(out);
}

}  // namespace fsi::qmc
