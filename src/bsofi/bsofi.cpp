#include "fsi/bsofi/bsofi.hpp"

#include <algorithm>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/dense/qr.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::bsofi {

using dense::MatrixView;
using dense::Side;
using dense::Trans;

Bsofi::Bsofi(const pcyclic::PCyclicMatrix& m)
    : n_(m.block_size()), b_(m.num_blocks()) {
  FSI_OBS_SPAN("bsofi.factor");
  const index_t n = n_;
  const index_t b = b_;
  panels_.reserve(static_cast<std::size_t>(b));
  taus_.reserve(static_cast<std::size_t>(b));

  if (b == 1) {
    // Degenerate p-cyclic matrix: M = I + B_1; a single QR.
    Matrix p = Matrix::identity(n);
    dense::axpby(1.0, p, m.b(0));
    std::vector<double> tau;
    dense::geqrf(p, tau);
    panels_.push_back(std::move(p));
    taus_.push_back(std::move(tau));
    return;
  }

  // Carry blocks: x = current (i, i) fill, y = current (i, b-1) fill.
  Matrix x = Matrix::identity(n);
  Matrix y = Matrix::copy_of(m.b(0));  // the +B_1 corner block

  for (index_t i = 0; i + 1 < b; ++i) {
    const bool last_panel = (i + 2 == b);

    // Panel = [x; -B_{i+2}] (paper indices; 0-based block b(i+1)).
    Matrix panel(2 * n, n);
    dense::copy(x, panel.block(0, 0, n, n));
    {
      MatrixView bottom = panel.block(n, 0, n, n);
      ConstMatrixView bnext = m.b(i + 1);
      for (index_t cj = 0; cj < n; ++cj)
        for (index_t ci = 0; ci < n; ++ci) bottom(ci, cj) = -bnext(ci, cj);
    }
    std::vector<double> tau;
    dense::geqrf(panel, tau);

    if (!last_panel) {
      // Column i+1 currently holds [0; I] in rows (i, i+1).
      Matrix col_next(2 * n, n);
      dense::set_identity(col_next.block(n, 0, n, n));
      dense::ormqr(Side::Left, Trans::Yes, panel, tau, col_next);
      rsup_.push_back(Matrix::copy_of(col_next.block(0, 0, n, n)));
      x = Matrix::copy_of(col_next.block(n, 0, n, n));

      // Last column holds [y; 0] in rows (i, i+1).
      Matrix col_last(2 * n, n);
      dense::copy(y, col_last.block(0, 0, n, n));
      dense::ormqr(Side::Left, Trans::Yes, panel, tau, col_last);
      rlast_.push_back(Matrix::copy_of(col_last.block(0, 0, n, n)));
      y = Matrix::copy_of(col_last.block(n, 0, n, n));
    } else {
      // i = b-2: the next column IS the last column, holding [y; I].
      Matrix col(2 * n, n);
      dense::copy(y, col.block(0, 0, n, n));
      dense::set_identity(col.block(n, 0, n, n));
      dense::ormqr(Side::Left, Trans::Yes, panel, tau, col);
      rsup_.push_back(Matrix::copy_of(col.block(0, 0, n, n)));
      x = Matrix::copy_of(col.block(n, 0, n, n));
    }

    panels_.push_back(std::move(panel));
    taus_.push_back(std::move(tau));
  }

  // Final N x N QR of the (b-1, b-1) fill.
  std::vector<double> tau;
  dense::geqrf(x, tau);
  panels_.push_back(std::move(x));
  taus_.push_back(std::move(tau));
}

Matrix Bsofi::r_diag(index_t i) const {
  FSI_CHECK(i >= 0 && i < b_, "Bsofi::r_diag: index out of range");
  Matrix r(n_, n_);
  const Matrix& p = panels_[static_cast<std::size_t>(i)];
  for (index_t j = 0; j < n_; ++j)
    for (index_t r_i = 0; r_i <= j; ++r_i) r(r_i, j) = p(r_i, j);
  return r;
}

const Matrix& Bsofi::r_sup(index_t i) const {
  FSI_CHECK(i >= 0 && i + 1 < b_, "Bsofi::r_sup: index out of range");
  return rsup_[static_cast<std::size_t>(i)];
}

const Matrix& Bsofi::r_last(index_t i) const {
  FSI_CHECK(i >= 0 && i + 2 < b_, "Bsofi::r_last: index out of range");
  return rlast_[static_cast<std::size_t>(i)];
}

Matrix Bsofi::inverse() const {
  const index_t n = n_, b = b_;
  const index_t dim = n * b;
  Matrix g(dim, dim);

  // ---- Stage 1: G := R^-1 (block upper triangular back-substitution). ----
  // Column j of R^-1: X_jj = R_jj^-1; X_ij = -R_ii^-1 (R_{i,i+1} X_{i+1,j}
  //                                   + [j == b-1] R_{i,b-1} X_{b-1,j}).
  // Block columns are independent — parallelise across them.  Per-column
  // spans expose the back-substitution imbalance (late columns are longer).
#pragma omp parallel for schedule(dynamic)
  for (index_t j = 0; j < b; ++j) {
    FSI_OBS_SPAN("bsofi.rinv.col");
    // X_jj = R_jj^-1.
    MatrixView xjj = g.block(j * n, j * n, n, n);
    dense::set_identity(xjj);
    dense::trsm(Side::Left, dense::Uplo::Upper, Trans::No, dense::Diag::NonUnit,
                1.0, panels_[static_cast<std::size_t>(j)].block(0, 0, n, n), xjj);
    for (index_t i = j - 1; i >= 0; --i) {
      MatrixView xij = g.block(i * n, j * n, n, n);
      // RHS = -R_{i,i+1} X_{i+1,j}  (always present for i < b-1)
      dense::gemm(Trans::No, Trans::No, -1.0, rsup_[static_cast<std::size_t>(i)],
                  g.block((i + 1) * n, j * n, n, n), 0.0, xij);
      // ... - R_{i,b-1} X_{b-1,j}, only nonzero when j == b-1 and i < b-2.
      if (j == b - 1 && i + 2 < b)
        dense::gemm(Trans::No, Trans::No, -1.0, rlast_[static_cast<std::size_t>(i)],
                    g.block((b - 1) * n, j * n, n, n), 1.0, xij);
      dense::trsm(Side::Left, dense::Uplo::Upper, Trans::No, dense::Diag::NonUnit,
                  1.0, panels_[static_cast<std::size_t>(i)].block(0, 0, n, n), xij);
    }
  }

  // ---- Stage 2: G := G Q^T = G Q_{b-1}^T Q_{b-2}^T ... Q_0^T. ----
  // Q_i is embedded at block rows/cols (i, i+1); right-multiplying by Q_i^T
  // touches only block columns (i, i+1) of G.  The final panel (index b-1)
  // is N x N and touches only the last block column.
  FSI_OBS_SPAN("bsofi.applyq");
  for (index_t i = b - 1; i >= 0; --i) {
    const index_t width = (i + 1 < b) ? 2 * n : n;
    dense::ormqr(Side::Right, Trans::Yes, panels_[static_cast<std::size_t>(i)],
                 taus_[static_cast<std::size_t>(i)],
                 g.block(0, i * n, dim, width));
  }
  return g;
}

Matrix invert(const pcyclic::PCyclicMatrix& m) {
  Matrix g = Bsofi(m).inverse();  // the factorisation dies here
  if (obs::health::enabled()) {
    util::WallTimer health_timer;
    // Exact 1-norm condition number of the reduced p-cyclic matrix: columns
    // hold one identity block plus exactly one +-B~ block, so
    // ||M~||_1 = 1 + max_i ||B~_i||_1, and BSOFI just produced the explicit
    // inverse — cond_1 = ||M~||_1 ||G~||_1 at O((bN)^2) cost, no Hager
    // iteration needed.
    double max_b = 0.0;
    for (index_t i = 0; i < m.num_blocks(); ++i)
      max_b = std::max(max_b, dense::one_norm(m.b(i)));
    obs::health::record_cond1((1.0 + max_b) * dense::one_norm(g.view()));
    if (!dense::all_finite(g.view()))
      obs::health::record_nonfinite("bsofi.inverse");
    obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                              health_timer.seconds());
  }
  return g;
}

Matrix invert_dense_lu(const pcyclic::PCyclicMatrix& m) {
  return dense::inverse(m.to_dense());
}

}  // namespace fsi::bsofi
