/// Tests for the fsi::stab stabilized propagator-chain engine: the UDT
/// (ASvQRD) recurrence, the scale-separated inversion, strategy selection,
/// and the headline claim — at a beta where the naive QR-accumulate path
/// trips the obs::health gate, the UDT path still delivers Green's
/// functions that match an extended-precision reference.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/qmc/greens.hpp"
#include "fsi/stab/chain.hpp"
#include "fsi/stab/reference.hpp"
#include "fsi/stab/udt.hpp"
#include "fsi/util/check.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::stab;
using fsi::testing::expect_close;
using fsi::testing::random_matrix;

qmc::HubbardModel make_model(dense::index_t nx, dense::index_t l,
                             double u = 4.0, double dtau = 0.25) {
  qmc::HubbardParams p;
  p.t = 1.0;
  p.u = u;
  p.beta = dtau * static_cast<double>(l);
  p.l = l;
  return qmc::HubbardModel(qmc::Lattice::chain(nx), p);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const double d = std::abs(a(i, j) - b(i, j));
      if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
      m = std::max(m, d);
    }
  return m;
}

// ---- UdtDecomposition ----------------------------------------------------

TEST(StabUdt, DecomposeReconstructsTheMatrix) {
  util::Rng rng(901);
  Matrix a = random_matrix(12, 12, rng);
  UdtDecomposition udt = udt_decompose(Matrix::copy_of(a));
  expect_close(udt.dense(), a, 1e-12, "U D T = A");
  // Scales are positive and descending (pivoted QR).
  for (index_t i = 0; i < 12; ++i) {
    EXPECT_GT(udt.d[static_cast<std::size_t>(i)], 0.0);
    if (i > 0) {
      EXPECT_LE(udt.d[static_cast<std::size_t>(i)],
                udt.d[static_cast<std::size_t>(i - 1)] * (1.0 + 1e-12));
    }
  }
  // U orthogonal.
  Matrix utu(12, 12);
  dense::gemm(dense::Trans::Yes, dense::Trans::No, 1.0, udt.u, udt.u, 0.0,
              utu);
  expect_close(utu, Matrix::identity(12), 1e-12, "U^T U = I");
}

TEST(StabUdt, AdvanceMatchesPlainProduct) {
  util::Rng rng(902);
  UdtDecomposition udt = UdtDecomposition::identity(10);
  Matrix product = Matrix::identity(10);
  for (int step = 0; step < 5; ++step) {
    Matrix b = random_matrix(10, 10, rng);
    udt_advance(udt, b);
    product = dense::matmul(b, product);
  }
  expect_close(udt.dense(), product, 1e-11, "UDT = B_5 ... B_1");
}

TEST(StabUdt, InverseOnePlusMatchesDenseInverse) {
  util::Rng rng(903);
  Matrix a = random_matrix(9, 9, rng);
  Matrix one_plus = Matrix::copy_of(a);
  for (index_t i = 0; i < 9; ++i) one_plus(i, i) += 1.0;
  Matrix expected = dense::inverse(one_plus);
  Matrix actual = inverse_one_plus(udt_decompose(std::move(a)));
  expect_close(actual, expected, 1e-11, "(1 + UDT)^-1");
}

TEST(StabUdt, ScaleSpreadOfGradedChain) {
  // diag(2, 1/2) repeated 40 times: d = (2^40, 2^-40), spread = 80*log10(2).
  UdtDecomposition udt = UdtDecomposition::identity(2);
  Matrix b(2, 2);
  b(0, 0) = 2.0;
  b(1, 1) = 0.5;
  for (int step = 0; step < 40; ++step) udt_advance(udt, b);
  EXPECT_NEAR(udt.scale_spread_log10(), 80.0 * std::log10(2.0), 1e-6);
  EXPECT_NEAR(udt.dmax(), std::pow(2.0, 40), 1e-3 * std::pow(2.0, 40));
}

TEST(StabUdt, IdentityDecomposition) {
  UdtDecomposition udt = UdtDecomposition::identity(4);
  EXPECT_EQ(udt.n(), 4);
  EXPECT_EQ(udt.scale_spread_log10(), 0.0);
  expect_close(udt.dense(), Matrix::identity(4), 1e-15, "identity UDT");
}

// ---- StabilizedChain -----------------------------------------------------

TEST(StabChain, MatchesNaiveGreensAtSmallBeta) {
  // Small beta: both paths are accurate; they must agree to ~1e-10.
  qmc::HubbardModel model = make_model(4, 8, /*u=*/2.0);
  util::Rng rng(904);
  qmc::HsField h(8, 4, rng);
  for (qmc::Spin spin : {qmc::Spin::Up, qmc::Spin::Down}) {
    for (index_t k : {index_t{0}, index_t{3}}) {
      Matrix g_naive = qmc::equal_time_greens(model, h, spin, k, 2);
      Matrix g_udt = qmc::stabilized_equal_time_greens(model, h, spin, k, 2);
      expect_close(g_udt, g_naive, 1e-10, "UDT vs naive at small beta");
    }
  }
}

TEST(StabChain, ClusterSizeDoesNotChangeTheAnswer) {
  qmc::HubbardModel model = make_model(4, 24);
  util::Rng rng(905);
  qmc::HsField h(24, 4, rng);
  Matrix ref = qmc::stabilized_equal_time_greens(model, h, qmc::Spin::Up, 5, 1);
  for (index_t c : {2, 3, 8}) {
    Matrix g = qmc::stabilized_equal_time_greens(model, h, qmc::Spin::Up, 5, c);
    expect_close(g, ref, 1e-11, "UDT cluster-size independence");
  }
}

TEST(StabChain, FlushAndFactorBookkeeping) {
  StabilizedChain chain(3, 4);
  EXPECT_EQ(chain.factors(), 0);
  EXPECT_EQ(chain.cluster_size(), 4);
  util::Rng rng(906);
  Matrix b = random_matrix(3, 3, rng);
  for (int step = 0; step < 6; ++step)
    chain.append([&](Matrix& m) { m = dense::matmul(b, m); });
  EXPECT_EQ(chain.factors(), 6);
  // 6 appends with cluster 4: one automatic flush + 2 pending; udt() must
  // flush the remainder and match the 6-fold product.
  Matrix product = Matrix::identity(3);
  for (int step = 0; step < 6; ++step) product = dense::matmul(b, product);
  expect_close(chain.udt().dense(), product, 1e-11, "chain flush");
}

TEST(StabChain, GreensPublishesScaleSpreadGauge) {
  obs::metrics::set(obs::metrics::Gauge::StabScaleSpread, -1.0);
  qmc::HubbardModel model = make_model(4, 32);
  util::Rng rng(907);
  qmc::HsField h(32, 4, rng);
  (void)qmc::stabilized_equal_time_greens(model, h, qmc::Spin::Up, 0, 8);
  // A beta = 8 chain spans many decades; the gauge must reflect that.
  EXPECT_GT(obs::metrics::get(obs::metrics::Gauge::StabScaleSpread), 1.0);
}

TEST(StabChain, CountsQrpAndRecombineWork) {
  const auto qrp0 = obs::metrics::total(obs::metrics::Counter::StabQrp);
  const auto rec0 = obs::metrics::total(obs::metrics::Counter::StabRecombine);
  qmc::HubbardModel model = make_model(4, 16);
  util::Rng rng(908);
  qmc::HsField h(16, 4, rng);
  (void)qmc::stabilized_equal_time_greens(model, h, qmc::Spin::Up, 0, 4);
  // 16 slices, cluster 4: exactly 4 QRP folds and 1 recombination.
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::StabQrp) - qrp0, 4u);
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::StabRecombine) - rec0,
            1u);
}

TEST(StabChain, RejectsBadConstruction) {
  EXPECT_THROW(StabilizedChain(0, 1), util::CheckError);
  EXPECT_THROW(StabilizedChain(4, 0), util::CheckError);
}

// ---- extended-precision reference ----------------------------------------

TEST(StabReference, MatchesDenseInverseAtTinyBeta) {
  util::Rng rng(909);
  std::vector<Matrix> bs;
  Matrix product = Matrix::identity(6);
  for (int step = 0; step < 4; ++step) {
    bs.push_back(random_matrix(6, 6, rng));
    product = dense::matmul(bs.back(), product);
  }
  for (index_t i = 0; i < 6; ++i) product(i, i) += 1.0;
  Matrix expected = dense::inverse(product);
  Matrix actual = reference_inverse_one_plus_chain(bs);
  expect_close(actual, expected, 1e-11, "reference vs dense inverse");
}

// ---- strategy selection --------------------------------------------------

TEST(StabStrategyParse, AcceptedSpellings) {
  using qmc::RecomputeMethod;
  for (const char* naive : {"naive", "QR", "Naive", "qr"})
    EXPECT_EQ(qmc::recompute_method_from_env_value(naive),
              RecomputeMethod::QrAccumulate)
        << naive;
  for (const char* udt : {"udt", "ASvQRD", "UDT", "asvqrd"})
    EXPECT_EQ(qmc::recompute_method_from_env_value(udt), RecomputeMethod::Udt)
        << udt;
}

TEST(StabStrategyParse, EnvValueFailsLoudOnGarbage) {
  EXPECT_EQ(qmc::recompute_method_from_env_value(nullptr),
            qmc::RecomputeMethod::QrAccumulate);
  EXPECT_EQ(qmc::recompute_method_from_env_value(""),
            qmc::RecomputeMethod::QrAccumulate);
  EXPECT_THROW(qmc::recompute_method_from_env_value("yes"), util::CheckError);
  EXPECT_THROW(qmc::recompute_method_from_env_value("turbo"),
               util::CheckError);
  try {
    qmc::recompute_method_from_env_value("qr2");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    // The message must name the bad value and the accepted spellings.
    EXPECT_NE(std::string(e.what()).find("qr2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("asvqrd"), std::string::npos);
  }
}

TEST(StabStrategyParse, DefaultRecomputeMethodIsNaiveWhenUnset) {
  // The test harness never sets FSI_STAB, so the default must be the
  // bit-identical pre-stab path.
  EXPECT_EQ(qmc::default_recompute_method(),
            qmc::RecomputeMethod::QrAccumulate);
}

// ---- the headline: large-beta frontier -----------------------------------

/// Shared config for the frontier tests: a 6-site chain at beta = 256
/// (L = 1024, dtau = 0.25, U = 4).  Empirically the naive QR-accumulate
/// chain overflows double range near beta ~ 200 here (the accumulated R
/// product exceeds ~1e308 and goes non-finite), while the saturated UDT
/// chain stays accurate to ~1e-13.
constexpr dense::index_t kFrontierSites = 6;
constexpr dense::index_t kFrontierSlices = 1024;

TEST(StabLargeBeta, UdtMatchesExtendedPrecisionReferenceWhereNaiveDies) {
  qmc::HubbardModel model =
      make_model(kFrontierSites, kFrontierSlices, /*u=*/4.0);
  util::Rng rng(7, 910);
  qmc::HsField h(kFrontierSlices, kFrontierSites, rng);

  std::vector<Matrix> bs;
  bs.reserve(static_cast<std::size_t>(kFrontierSlices));
  for (index_t t = 0; t < kFrontierSlices; ++t)
    bs.push_back(
        model.b_matrix(h, (1 + t) % kFrontierSlices, qmc::Spin::Up));
  Matrix ref = reference_inverse_one_plus_chain(bs);

  // The naive path no longer resembles the answer (non-finite or worse
  // than the drift FAIL budget)...
  Matrix g_naive = qmc::equal_time_greens(model, h, qmc::Spin::Up, 0, 8);
  EXPECT_GT(max_abs_diff(g_naive, ref), obs::health::thresholds().drift_fail);

  // ...while the UDT path matches the extended-precision reference to well
  // under the 1e-8 acceptance bar.
  Matrix g_udt =
      qmc::stabilized_equal_time_greens(model, h, qmc::Spin::Up, 0, 8);
  EXPECT_LT(max_abs_diff(g_udt, ref), 1e-8);
}

TEST(StabLargeBeta, HealthGateFailsNaiveEngineAndPassesUdt) {
  qmc::HubbardModel model =
      make_model(kFrontierSites, kFrontierSlices, /*u=*/4.0);
  util::Rng rng(7, 911);
  qmc::HsField h(kFrontierSlices, kFrontierSites, rng);
  const index_t wrap = 8;

  // Naive engine: the constructor's recompute is already non-finite, and
  // the first stabilisation records it -> overall FAIL.
  obs::health::reset();
  {
    qmc::EqualTimeGreens eng(model, h, qmc::Spin::Up, 8, wrap, 0,
                             qmc::RecomputeMethod::QrAccumulate);
    for (index_t s = 0; s < 2 * wrap; ++s) eng.advance();
    EXPECT_FALSE(dense::all_finite(eng.g().view()));
  }
  EXPECT_EQ(obs::health::report().overall, obs::health::Status::Fail);

  // UDT engine at the same beta: wraps vs recomputes agree to ~1e-12 and
  // the health report stays clean.
  obs::health::reset();
  {
    qmc::EqualTimeGreens eng(model, h, qmc::Spin::Up, 8, wrap, 0,
                             qmc::RecomputeMethod::Udt);
    for (index_t s = 0; s < 2 * wrap; ++s) eng.advance();
    EXPECT_LT(eng.max_drift(), obs::health::thresholds().drift_warn);
    // The drift gauges exported for /metrics follow the engine.
    EXPECT_EQ(obs::metrics::get(obs::metrics::Gauge::GreensLastDrift),
              eng.last_drift());
    EXPECT_EQ(obs::metrics::get(obs::metrics::Gauge::GreensMaxDrift),
              eng.max_drift());
  }
  EXPECT_EQ(obs::health::report().overall, obs::health::Status::Ok);
  obs::health::reset();
}

}  // namespace
