#include "fsi/qmc/greens.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/dense/qr.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/stab/chain.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

RecomputeMethod recompute_method_from_env_value(const char* value) {
  std::string t = value != nullptr ? value : "";
  std::transform(t.begin(), t.end(), t.begin(), [](unsigned char ch) {
    return static_cast<char>(std::tolower(ch));
  });
  if (t.empty() || t == "naive" || t == "qr")
    return RecomputeMethod::QrAccumulate;
  FSI_CHECK(t == "udt" || t == "asvqrd",
            std::string("unknown FSI_STAB value \"") + value +
                "\" (accepted: naive, qr, udt, asvqrd)");
  return RecomputeMethod::Udt;
}

RecomputeMethod default_recompute_method() {
  // If the initializer throws, C++ retries the static init on the next
  // call — the cache is only populated by a successful parse.
  static const RecomputeMethod cached =
      recompute_method_from_env_value(std::getenv("FSI_STAB"));
  return cached;
}

Matrix stabilized_equal_time_greens(const HubbardModel& model,
                                    const HsField& field, Spin spin, index_t k,
                                    index_t cluster_size) {
  FSI_OBS_SPAN("greens.udt_chain");
  const index_t l = field.num_slices();
  const index_t n = model.num_sites();
  FSI_CHECK(k >= 0 && k < l, "stabilized_equal_time_greens: slice out of range");
  FSI_CHECK(cluster_size >= 1,
            "stabilized_equal_time_greens: cluster size must be >= 1");
  const long env_cluster = obs::env_long("FSI_STAB_CLUSTER", 0);
  if (env_cluster > 0) cluster_size = static_cast<index_t>(env_cluster);

  // A(k) = B_k ... B_{k+1}, same factor order as equal_time_greens, held as
  // U diag(d) T with a pivoted QR per cluster; G = (1 + UDT)^-1 via the
  // Db/Ds scale separation.
  stab::StabilizedChain chain(n, cluster_size);
  for (index_t t = 0; t < l; ++t) {
    const index_t j = (k + 1 + t) % l;
    chain.append(
        [&](Matrix& m) { model.multiply_b_left(field, j, spin, m); });
  }
  return chain.greens();
}

Matrix equal_time_greens(const HubbardModel& model, const HsField& field,
                         Spin spin, index_t k, index_t cluster_size) {
  FSI_OBS_SPAN("greens.qr_accumulate");
  const index_t l = field.num_slices();
  const index_t n = model.num_sites();
  FSI_CHECK(k >= 0 && k < l, "equal_time_greens: slice out of range");
  FSI_CHECK(cluster_size >= 1, "equal_time_greens: cluster size must be >= 1");

  // Accumulate A(k) = B_k ... B_{k+1} (factors applied in ascending cyclic
  // order starting at k+1) as Q * R, re-orthogonalising after every cluster
  // of `cluster_size` plain products.  The orthogonal Q absorbs the
  // directional growth of the chain; the triangular R carries the scales —
  // this is the standard stratified-product stabilisation, and the QR-based
  // counterpart of what BSOFI does for the full selected inversion.
  Matrix q = Matrix::identity(n);
  Matrix r = Matrix::identity(n);
  Matrix acc = Matrix::identity(n);  // pending (un-orthogonalised) product
  index_t pending = 0;

  auto flush = [&] {
    if (pending == 0) return;
    // q := qr_q(acc * q), r := qr_r(acc * q) * r.
    Matrix t = dense::matmul(acc, q);
    dense::QrFactorization qr(std::move(t));
    Matrix rnew = qr.r();
    dense::trmm(dense::Side::Right, dense::Uplo::Upper, dense::Trans::No,
                dense::Diag::NonUnit, 1.0, r, rnew);  // rnew := rnew * r
    r = std::move(rnew);
    q = qr.q();
    dense::set_identity(acc);
    pending = 0;
  };

  for (index_t t = 0; t < l; ++t) {
    const index_t j = (k + 1 + t) % l;
    model.multiply_b_left(field, j, spin, acc);
    if (++pending == cluster_size) flush();
  }
  flush();

  // (I + Q R)^-1 = (Q^T + R)^-1 Q^T: both summands are O(1)-bounded (Q
  // orthogonal) or triangular with the chain's scales, so the LU solve is
  // well behaved even when the raw chain overflows double precision.
  Matrix qt_plus_r = dense::transposed(q);
  dense::axpby(1.0, qt_plus_r, r);  // hold Q^T + R... (axpby: b := a + b)
  dense::LuFactorization lu(std::move(qt_plus_r));
  Matrix g = dense::transposed(q);
  lu.solve(g);
  return g;
}

EqualTimeGreens::EqualTimeGreens(const HubbardModel& model, const HsField& field,
                                 Spin spin, index_t cluster_size,
                                 index_t wrap_interval, index_t delay_depth,
                                 RecomputeMethod method)
    : model_(model),
      field_(field),
      spin_(spin),
      cluster_size_(cluster_size),
      wrap_interval_(wrap_interval),
      delay_depth_(delay_depth),
      method_(method) {
  FSI_CHECK(field.num_slices() == model.params().l &&
                field.num_sites() == model.num_sites(),
            "EqualTimeGreens: field shape mismatch");
  FSI_CHECK(wrap_interval_ >= 1, "EqualTimeGreens: wrap interval must be >= 1");
  FSI_CHECK(delay_depth_ >= 0, "EqualTimeGreens: delay depth must be >= 0");
  if (delay_depth_ > 0) {
    delay_u_ = Matrix(model.num_sites(), delay_depth_);
    delay_w_ = Matrix(delay_depth_, model.num_sites());
  }
  recompute();
}

void EqualTimeGreens::flush_delayed() const {
  if (pending_ == 0) return;
  // G += U(:, 0:pending) * W(0:pending, :).
  dense::gemm(dense::Trans::No, dense::Trans::No, 1.0,
              delay_u_.block(0, 0, delay_u_.rows(), pending_),
              delay_w_.block(0, 0, pending_, delay_w_.cols()), 1.0, g_);
  pending_ = 0;
}

double EqualTimeGreens::effective_diag(index_t i) const {
  double v = g_(i, i);
  for (index_t m = 0; m < pending_; ++m) v += delay_u_(i, m) * delay_w_(m, i);
  return v;
}

double EqualTimeGreens::flip_alpha(index_t site) const {
  const double nu = model_.params().nu();
  const int h = field_.at(slice_, site);
  return std::exp(-2.0 * sign_of(spin_) * nu * h) - 1.0;
}

double EqualTimeGreens::flip_ratio(index_t site, double alpha) const {
  FSI_CHECK(site >= 0 && site < g_.rows(), "flip_ratio: site out of range");
  return 1.0 + alpha * (1.0 - effective_diag(site));
}

void EqualTimeGreens::apply_flip(index_t site, double alpha, double ratio) {
  // G <- G - (alpha/ratio) (e_i - G(:, i)) (G(i, :)), where G is the
  // *effective* Green's function including any pending delayed updates.
  const index_t n = g_.rows();
  if (delay_depth_ == 0) {
    std::vector<double> u(static_cast<std::size_t>(n));
    std::vector<double> w(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) {
      u[static_cast<std::size_t>(j)] = -g_(j, site);
      w[static_cast<std::size_t>(j)] = g_(site, j);
    }
    u[static_cast<std::size_t>(site)] += 1.0;
    dense::ger(-alpha / ratio, u.data(), w.data(), g_);
    return;
  }

  // Delayed mode: new pair from the effective column/row
  //   g_col = G0(:, i) + U W(:, i),  g_row = G0(i, :) + U(i, :) W.
  const index_t m = pending_;
  double* ucol = delay_u_.view().col(m);
  for (index_t j = 0; j < n; ++j) ucol[j] = -g_(j, site);
  for (index_t p = 0; p < m; ++p) {
    const double wpi = delay_w_(p, site);
    if (wpi == 0.0) continue;
    const double* up = delay_u_.view().col(p);
    for (index_t j = 0; j < n; ++j) ucol[j] -= up[j] * wpi;
  }
  ucol[site] += 1.0;

  for (index_t j = 0; j < n; ++j) {
    double v = g_(site, j);
    for (index_t p = 0; p < m; ++p) v += delay_u_(site, p) * delay_w_(p, j);
    delay_w_(m, j) = v;
  }

  const double scale = -alpha / ratio;
  for (index_t j = 0; j < n; ++j) ucol[j] *= scale;
  if (++pending_ == delay_depth_) flush_delayed();
}

void EqualTimeGreens::advance() {
  flush_delayed();
  // Wrap with the slice just completed: G_{l+1} = B_l G_l B_l^-1.
  Matrix g = std::move(g_);
  model_.multiply_b_left(field_, slice_, spin_, g);
  model_.multiply_binv_right(field_, slice_, spin_, g);
  g_ = std::move(g);
  slice_ = (slice_ + 1) % field_.num_slices();
  if (++wraps_since_recompute_ >= wrap_interval_) {
    Matrix wrapped = g_;
    recompute();
    last_drift_ = dense::max_abs([&] {
      Matrix diff = std::move(wrapped);
      dense::axpby(-1.0, diff, g_);  // diff := g_ - diff
      return diff;
    }());
    max_drift_ = std::max(max_drift_, last_drift_);
    obs::health::record_drift(last_drift_);
    obs::metrics::set(obs::metrics::Gauge::GreensLastDrift, last_drift_);
    obs::metrics::set(obs::metrics::Gauge::GreensMaxDrift, max_drift_);
    if (!dense::all_finite(g_.view()))
      obs::health::record_nonfinite("greens.recompute");
  }
}

void EqualTimeGreens::recompute() {
  flush_delayed();
  FSI_OBS_SPAN("greens.recompute");
  util::WallTimer timer;
  const index_t l = field_.num_slices();
  const index_t prev = (slice_ - 1 + l) % l;
  g_ = method_ == RecomputeMethod::Udt
           ? stabilized_equal_time_greens(model_, field_, spin_, prev,
                                          cluster_size_)
           : equal_time_greens(model_, field_, spin_, prev, cluster_size_);
  wraps_since_recompute_ = 0;
  ++recomputes_;
  obs::metrics::add(obs::metrics::Counter::GreensRecomputes, 1);
  obs::metrics::add_seconds(obs::metrics::Accum::GreensRecompute,
                            timer.seconds());
}

void EqualTimeGreens::reseed() {
  last_drift_ = 0.0;
  max_drift_ = 0.0;
  recomputes_ = 0;
  pending_ = 0;  // pending updates belong to the previous chain
  recompute();
}

}  // namespace fsi::qmc
