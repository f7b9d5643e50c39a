#include "fsi/dense/qr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "fsi/obs/metrics.hpp"
#include "fsi/util/flops.hpp"

namespace fsi::dense {
namespace {

constexpr index_t kQrPanel = 48;

/// Generate an elementary reflector H = I - tau v v^T with v(0) = 1 such
/// that H [alpha; x] = [beta; 0]   (DLARFG).
template <typename T>
T larfg(T& alpha, T* x, index_t n) {
  T xnorm2 = T(0);
  for (index_t i = 0; i < n; ++i) xnorm2 += x[i] * x[i];
  if (xnorm2 == T(0)) return T(0);  // already triangular; H = I
  const T beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
  const T tau = (beta - alpha) / beta;
  const T inv = T(1) / (alpha - beta);
  for (index_t i = 0; i < n; ++i) x[i] *= inv;
  alpha = beta;
  return tau;
}

/// Unblocked panel QR (DGEQR2).
template <typename T>
void geqr2(BasicMatrixView<T> a, T* tau) {
  const index_t m = a.rows(), n = a.cols();
  std::vector<T> w(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n && j < m; ++j) {
    T* below = (j + 1 < m) ? a.col(j) + (j + 1) : nullptr;
    tau[j] = larfg(a(j, j), below, m - j - 1);
    if (tau[j] == T(0) || j + 1 >= n) continue;
    // Apply H_j to the trailing columns: A := (I - tau v v^T) A.
    const T beta = a(j, j);
    a(j, j) = T(1);  // temporarily store the full v (unit head)
    BasicConstMatrixView<T> trail = a.block(j, j + 1, m - j, n - j - 1);
    BasicMatrixView<T> trail_mut = a.block(j, j + 1, m - j, n - j - 1);
    gemv(Trans::Yes, T(1), trail, a.col(j) + j, T(0), w.data());
    ger(-tau[j], a.col(j) + j, w.data(), trail_mut);
    a(j, j) = beta;
  }
}

/// Form the upper-triangular T of the compact-WY representation
/// Q = I - V T V^T from the k reflectors in v/tau (DLARFT, forward
/// columnwise).  V is m x k, unit lower trapezoidal as stored by geqr2.
template <typename T>
void larft(BasicConstMatrixView<T> v, const T* tau, BasicMatrixView<T> t) {
  const index_t m = v.rows(), k = v.cols();
  for (index_t i = 0; i < k; ++i) {
    t(i, i) = tau[i];
    if (i == 0) continue;
    // t(0:i, i) = -tau_i * V(:, 0:i)^T v_i, then T(0:i,0:i) * that.
    // v_i has implicit unit at row i and zeros above.
    for (index_t j = 0; j < i; ++j) {
      T dot = v(i, j);  // unit head of v_i times V(i, j)
      for (index_t r = i + 1; r < m; ++r) dot += v(r, j) * v(r, i);
      t(j, i) = -tau[i] * dot;
    }
    util::flops::add(2ull * (m - i) * i);
    // t(0:i, i) := T(0:i, 0:i) * t(0:i, i) (in-place trmv, upper).
    for (index_t r = 0; r < i; ++r) {
      T s = t(r, r) * t(r, i);
      for (index_t p = r + 1; p < i; ++p) s += t(r, p) * t(p, i);
      t(r, i) = s;
    }
  }
}

/// Copy the unit lower-trapezoidal V out of the packed QR storage into a
/// clean workspace (zeros above the diagonal, explicit unit diagonal), so
/// gemm can consume it directly.
template <typename T>
BasicMatrix<T> extract_v(BasicConstMatrixView<T> packed) {
  const index_t m = packed.rows(), k = packed.cols();
  BasicMatrix<T> v(m, k);
  for (index_t j = 0; j < k; ++j) {
    v(j, j) = T(1);
    for (index_t i = j + 1; i < m; ++i) v(i, j) = packed(i, j);
  }
  return v;
}

/// Apply the block reflector H = I - V T V^T (or H^T) to C (DLARFB).
template <typename T>
void larfb(Side side, Trans trans, BasicConstMatrixView<T> v,
           BasicConstMatrixView<T> t, BasicMatrixView<T> c) {
  const Trans t_op = (trans == Trans::No) ? Trans::No : Trans::Yes;
  if (side == Side::Left) {
    // C := (I - V T' V^T) C  =  C - V T' (V^T C).
    BasicMatrix<T> w(v.cols(), c.cols());
    gemm(Trans::Yes, Trans::No, T(1), v, BasicConstMatrixView<T>(c), T(0),
         BasicMatrixView<T>(w));
    trmm(Side::Left, Uplo::Upper, t_op, Diag::NonUnit, T(1), t,
         BasicMatrixView<T>(w));
    gemm(Trans::No, Trans::No, T(-1), v, BasicConstMatrixView<T>(w), T(1), c);
  } else {
    // C := C (I - V T' V^T)  =  C - (C V) T' V^T.
    BasicMatrix<T> w(c.rows(), v.cols());
    gemm(Trans::No, Trans::No, T(1), BasicConstMatrixView<T>(c), v, T(0),
         BasicMatrixView<T>(w));
    trmm(Side::Right, Uplo::Upper, t_op, Diag::NonUnit, T(1), t,
         BasicMatrixView<T>(w));
    gemm(Trans::No, Trans::Yes, T(-1), BasicConstMatrixView<T>(w), v, T(1), c);
  }
}

}  // namespace

template <typename T>
void geqrf(BasicMatrixView<T> a, std::vector<T>& tau) {
  const index_t m = a.rows(), n = a.cols();
  FSI_CHECK(m >= n, "geqrf: requires rows >= cols");
  obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);
  tau.assign(static_cast<std::size_t>(n), T(0));
  for (index_t jb = 0; jb < n; jb += kQrPanel) {
    const index_t nb = std::min(kQrPanel, n - jb);
    BasicMatrixView<T> panel = a.block(jb, jb, m - jb, nb);
    geqr2(panel, tau.data() + jb);  // its gemv/ger credit the panel flops
    if (jb + nb < n) {
      BasicMatrix<T> v = extract_v(BasicConstMatrixView<T>(panel));
      BasicMatrix<T> t(nb, nb);
      larft(BasicConstMatrixView<T>(v), tau.data() + jb,
            BasicMatrixView<T>(t));
      larfb(Side::Left, Trans::Yes, BasicConstMatrixView<T>(v),
            BasicConstMatrixView<T>(t),
            a.block(jb, jb + nb, m - jb, n - jb - nb));
    }
  }
}

template void geqrf<double>(MatrixView, std::vector<double>&);
template void geqrf<float>(MatrixViewF, std::vector<float>&);

template <typename T>
void geqp3(BasicMatrixView<T> a, std::vector<T>& tau,
           std::vector<index_t>& jpvt) {
  const index_t m = a.rows(), n = a.cols();
  FSI_CHECK(m >= n, "geqp3: requires rows >= cols");
  obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);
  tau.assign(static_cast<std::size_t>(n), T(0));
  jpvt.resize(static_cast<std::size_t>(n));
  std::iota(jpvt.begin(), jpvt.end(), index_t(0));

  // Partial column norms: vn1 is downdated after each reflector, vn2 holds
  // the norm at the last exact evaluation.  When cancellation has eaten more
  // than sqrt(eps) of vn1 relative to vn2, the downdate is no longer
  // trustworthy and the norm is recomputed from the trailing rows.
  auto col_norm = [&](index_t j, index_t from) {
    T s = T(0);
    for (index_t i = from; i < m; ++i) s += a(i, j) * a(i, j);
    return std::sqrt(s);
  };
  std::vector<T> vn1(static_cast<std::size_t>(n)), vn2(vn1);
  for (index_t j = 0; j < n; ++j) vn1[j] = vn2[j] = col_norm(j, 0);
  const T tol3z = std::sqrt(std::numeric_limits<T>::epsilon());

  std::vector<T> w(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    // Pivot: swap the remaining column of largest partial norm into place.
    index_t p = j;
    for (index_t k = j + 1; k < n; ++k)
      if (vn1[k] > vn1[p]) p = k;
    if (p != j) {
      for (index_t i = 0; i < m; ++i) std::swap(a(i, j), a(i, p));
      std::swap(jpvt[j], jpvt[p]);
      std::swap(vn1[j], vn1[p]);
      std::swap(vn2[j], vn2[p]);
    }

    T* below = (j + 1 < m) ? a.col(j) + (j + 1) : nullptr;
    tau[j] = larfg(a(j, j), below, m - j - 1);
    if (j + 1 >= n) continue;

    if (tau[j] != T(0)) {
      // Apply H_j to the trailing columns (same gemv/ger pair as geqr2).
      const T beta = a(j, j);
      a(j, j) = T(1);
      BasicConstMatrixView<T> trail = a.block(j, j + 1, m - j, n - j - 1);
      BasicMatrixView<T> trail_mut = a.block(j, j + 1, m - j, n - j - 1);
      gemv(Trans::Yes, T(1), trail, a.col(j) + j, T(0), w.data());
      ger(-tau[j], a.col(j) + j, w.data(), trail_mut);
      a(j, j) = beta;
    }

    for (index_t k = j + 1; k < n; ++k) {
      if (vn1[k] == T(0)) continue;
      T temp = std::abs(a(j, k)) / vn1[k];
      temp = std::max(T(0), (T(1) + temp) * (T(1) - temp));
      const T ratio = vn1[k] / vn2[k];
      if (temp * ratio * ratio <= tol3z) {
        vn1[k] = (j + 1 < m) ? col_norm(k, j + 1) : T(0);
        vn2[k] = vn1[k];
      } else {
        vn1[k] *= std::sqrt(temp);
      }
    }
  }
  // The reflector applications' gemv/ger credited the ~2mn^2 - 2n^3/3
  // flops; the norm recomputes are O(mn) each and left uncounted.
}

template void geqp3<double>(MatrixView, std::vector<double>&,
                            std::vector<index_t>&);
template void geqp3<float>(MatrixViewF, std::vector<float>&,
                           std::vector<index_t>&);

template <typename T>
void ormqr(Side side, Trans trans, BasicConstMatrixView<T> vfull,
           const std::vector<T>& tau, BasicMatrixView<T> c) {
  const index_t m = vfull.rows();
  const index_t k = vfull.cols();
  FSI_CHECK(static_cast<index_t>(tau.size()) >= k, "ormqr: tau too short");
  FSI_CHECK((side == Side::Left ? c.rows() : c.cols()) == m,
            "ormqr: C dimension must match Q order");
  obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);

  // Q = H_0 H_1 ... H_{k-1}.  Block application order (LAPACK dormqr):
  //   Left  + Trans::Yes (Q^T C): forward      Left  + No (Q C): backward
  //   Right + Trans::No  (C Q)  : forward      Right + Yes (C Q^T): backward
  const bool forward = (side == Side::Left) == (trans == Trans::Yes);

  std::vector<index_t> starts;
  for (index_t jb = 0; jb < k; jb += kQrPanel) starts.push_back(jb);
  if (!forward) std::reverse(starts.begin(), starts.end());

  for (index_t jb : starts) {
    const index_t nb = std::min(kQrPanel, k - jb);
    BasicMatrix<T> v = extract_v(vfull.block(jb, jb, m - jb, nb));
    BasicMatrix<T> t(nb, nb);
    larft(BasicConstMatrixView<T>(v), tau.data() + jb, BasicMatrixView<T>(t));
    if (side == Side::Left)
      larfb(side, trans, BasicConstMatrixView<T>(v),
            BasicConstMatrixView<T>(t), c.block(jb, 0, m - jb, c.cols()));
    else
      larfb(side, trans, BasicConstMatrixView<T>(v),
            BasicConstMatrixView<T>(t), c.block(0, jb, c.rows(), m - jb));
  }
}

template void ormqr<double>(Side, Trans, ConstMatrixView,
                            const std::vector<double>&, MatrixView);
template void ormqr<float>(Side, Trans, ConstMatrixViewF,
                           const std::vector<float>&, MatrixViewF);

template <typename T>
BasicQrFactorization<T>::BasicQrFactorization(BasicMatrix<T> a)
    : packed_(std::move(a)) {
  geqrf<T>(packed_, tau_);
}

template <typename T>
BasicMatrix<T> BasicQrFactorization<T>::r() const {
  const index_t n = packed_.cols();
  BasicMatrix<T> r(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = packed_(i, j);
  return r;
}

template <typename T>
BasicMatrix<T> BasicQrFactorization<T>::q() const {
  BasicMatrix<T> q = BasicMatrix<T>::identity(packed_.rows());
  apply_q(Side::Left, Trans::No, q);
  return q;
}

template class BasicQrFactorization<double>;
template class BasicQrFactorization<float>;

template <typename T>
BasicQrpFactorization<T>::BasicQrpFactorization(BasicMatrix<T> a)
    : packed_(std::move(a)) {
  geqp3<T>(packed_, tau_, jpvt_);
}

template <typename T>
BasicMatrix<T> BasicQrpFactorization<T>::r() const {
  const index_t n = packed_.cols();
  BasicMatrix<T> r(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = packed_(i, j);
  return r;
}

template <typename T>
BasicMatrix<T> BasicQrpFactorization<T>::q() const {
  BasicMatrix<T> q = BasicMatrix<T>::identity(packed_.rows());
  apply_q(Side::Left, Trans::No, q);
  return q;
}

template class BasicQrpFactorization<double>;
template class BasicQrpFactorization<float>;

}  // namespace fsi::dense
