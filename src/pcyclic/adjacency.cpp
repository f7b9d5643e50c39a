#include "fsi/pcyclic/adjacency.hpp"

#include <exception>
#include <type_traits>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"

namespace fsi::pcyclic {
namespace {

/// g - I (g must be square).
template <typename T>
dense::BasicMatrix<T> minus_identity(dense::BasicConstMatrixView<T> g) {
  dense::BasicMatrix<T> out = dense::BasicMatrix<T>::copy_of(g);
  for (index_t d = 0; d < out.rows(); ++d) out(d, d) -= T(1);
  return out;
}

/// sign * lhs * rhs, plus I when \p plus_identity: the one GEMM each move is.
template <typename T>
dense::BasicMatrix<T> product(T sign, dense::BasicConstMatrixView<T> lhs,
                              dense::BasicConstMatrixView<T> rhs,
                              bool plus_identity) {
  dense::BasicMatrix<T> out(lhs.rows(), rhs.cols());
  dense::gemm<T>(dense::Trans::No, dense::Trans::No, sign, lhs, rhs, T(0), out);
  if (plus_identity) {
    for (index_t d = 0; d < out.rows(); ++d) out(d, d) += T(1);
  }
  return out;
}

}  // namespace

template <typename T>
BasicBlockOps<T>::BasicBlockOps(const PCyclicMatrix& m) : m_(m) {
  const auto l = static_cast<std::size_t>(m.num_blocks());
  if constexpr (std::is_same_v<T, float>) demoted_.resize(l);
  inv_.resize(l);
  // Invert the L independent B blocks in parallel; exceptions (singular
  // blocks) must not escape the OpenMP region, so stash and rethrow.
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic)
  for (index_t i = 0; i < m.num_blocks(); ++i) {
    try {
      const auto s = static_cast<std::size_t>(i);
      if constexpr (std::is_same_v<T, float>)
        demoted_[s] = dense::demoted(m.b(i));
      inv_[s] = dense::inverse(b(i));
    } catch (...) {
#pragma omp critical
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

template <typename T>
auto BasicBlockOps<T>::b(index_t i) const -> ConstView {
  FSI_CHECK(i >= 0 && i < num_blocks(), "BlockOps: block index out of range");
  if constexpr (std::is_same_v<T, float>)
    return demoted_[static_cast<std::size_t>(i)];
  else
    return m_.b(i);
}

template <typename T>
auto BasicBlockOps<T>::inv(index_t i) const -> ConstView {
  FSI_CHECK(i >= 0 && i < num_blocks(), "BlockOps: block index out of range");
  return inv_[static_cast<std::size_t>(i)];
}

// ---------------------------------------------------------------------------
// 0-based boundary-case tables (derived from the explicit form, Eq. 3; see
// tests/test_pcyclic_adjacency.cpp which checks every case against a dense
// inverse).  B ranges over b(0..L-1) = paper's B_1..B_L; row/col indices are
// 0-based so "first row k=1" becomes k=0 and "last row k=L" becomes k=L-1.
// ---------------------------------------------------------------------------

template <typename T>
auto BasicBlockOps<T>::up(index_t k, index_t l, ConstView g) const -> Block {
  //  k != l, k != 0 : G(k-1, l) =  B_k^-1  G(k, l)
  //  k == l != 0    : G(k-1, l) =  B_k^-1 (G(k, k) - I)        [diagonal]
  //  k == 0, l != 0 : G(L-1, l) = -B_0^-1  G(0, l)             [first row]
  //  k == 0, l == 0 : G(L-1, 0) = -B_0^-1 (G(0, 0) - I)        [corner]
  const T sign = (k == 0) ? T(-1) : T(1);
  if (k != l) return product<T>(sign, inv(k), g, false);
  return product<T>(sign, inv(k), minus_identity(g), false);
}

template <typename T>
auto BasicBlockOps<T>::down(index_t k, index_t l, ConstView g) const -> Block {
  //  generic            : G(k+1, l) =  B_{k+1} G(k, l)
  //  k+1 == l (k!=L-1)  : G(l, l)   =  B_l G(l-1, l) + I       [sub-diagonal]
  //  k == L-1, l != 0   : G(0, l)   = -B_0 G(L-1, l)           [last row]
  //  k == L-1, l == 0   : G(0, 0)   = -B_0 G(L-1, 0) + I       [corner]
  const index_t kn = m_.wrap(k + 1);
  const T sign = (k == num_blocks() - 1) ? T(-1) : T(1);
  // Landing on the diagonal (kn == l) covers the corner case too.
  return product<T>(sign, b(kn), g, kn == l);
}

template <typename T>
auto BasicBlockOps<T>::left(index_t k, index_t l, ConstView g) const -> Block {
  //  generic            : G(k, l-1) =  G(k, l) B_l
  //  l == k+1 (k!=L-1)  : G(k, k)   =  G(k, k+1) B_{k+1} + I   [sub-diagonal]
  //  l == 0, k != L-1   : G(k, L-1) = -G(k, 0) B_0             [first column]
  //  l == 0, k == L-1   : G(L-1,L-1)= -G(L-1, 0) B_0 + I       [corner]
  const T sign = (l == 0) ? T(-1) : T(1);
  return product<T>(sign, g, b(l), m_.wrap(l - 1) == k);
}

template <typename T>
auto BasicBlockOps<T>::right(index_t k, index_t l, ConstView g) const -> Block {
  //  k != l, l != L-1 : G(k, l+1) =  G(k, l) B_{l+1}^-1
  //  k == l != L-1    : G(k, k+1) = (G(k, k) - I) B_{k+1}^-1   [diagonal]
  //  l == L-1, k != l : G(k, 0)   = -G(k, L-1) B_0^-1          [last column]
  //  k == l == L-1    : G(L-1, 0) = -(G(L-1,L-1) - I) B_0^-1   [corner]
  const index_t ln = m_.wrap(l + 1);
  const T sign = (l == num_blocks() - 1) ? T(-1) : T(1);
  if (k != l) return product<T>(sign, g, inv(ln), false);
  return product<T>(sign, minus_identity(g), inv(ln), false);
}

template class BasicBlockOps<double>;
template class BasicBlockOps<float>;

}  // namespace fsi::pcyclic
