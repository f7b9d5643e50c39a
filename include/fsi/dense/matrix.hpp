#pragma once
/// \file matrix.hpp
/// \brief Column-major dense matrix container and non-owning views.
///
/// All FSI linear algebra operates on these types.  Storage is column-major
/// with an explicit leading dimension on views, matching the BLAS/LAPACK
/// convention used by the paper (Intel MKL), so every kernel signature maps
/// 1:1 onto its BLAS counterpart.  BasicMatrix owns its storage (RAII, no raw
/// new/delete — C++ Core Guidelines R.11); BasicMatrixView /
/// BasicConstMatrixView are cheap non-owning aliases used to address
/// sub-blocks (e.g. the N x N blocks of an NL x NL Hubbard matrix) without
/// copies.
///
/// Every type is templated over the scalar (`T` in {float, double}): the
/// mixed-precision FSI pipeline runs the CLS cluster products and WRP seed
/// walks in fp32 while BSOFI stays fp64 (ROADMAP item 2).  The `Matrix` /
/// `MatrixView` / `ConstMatrixView` aliases keep the fp64 default path
/// source-identical; the `F`-suffixed aliases name the fp32 instantiations.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "fsi/util/check.hpp"

namespace fsi::dense {

/// Index type for matrix dimensions.  32-bit signed, the BLAS/LAPACK
/// convention.  Each dimension is individually bounded by INT_MAX (~2.1e9);
/// what actually guards the flat storage index is the BasicMatrix
/// constructor, which computes rows*cols in 64-bit and FSI_CHECKs that the
/// element count fits std::size_t before allocating — so a huge-dimension
/// request (e.g. arriving via serve) fails loudly instead of wrapping the
/// column stride `j * ld + i`, which is always evaluated in std::size_t.
using index_t = int;

template <typename T>
class BasicMatrixView;

/// Non-owning read-only view of a column-major block.
template <typename T>
class BasicConstMatrixView {
 public:
  using value_type = T;

  BasicConstMatrixView() = default;
  BasicConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    FSI_ASSERT(rows >= 0 && cols >= 0 && ld >= rows);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }
  const T* data() const { return data_; }

  const T& operator()(index_t i, index_t j) const {
    FSI_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * ld_ + i];
  }

  /// Sub-block of size bm x bn with top-left corner (i, j).
  BasicConstMatrixView block(index_t i, index_t j, index_t bm,
                             index_t bn) const {
    FSI_ASSERT(i >= 0 && j >= 0 && i + bm <= rows_ && j + bn <= cols_);
    return {&(*this)(i, j), bm, bn, ld_};
  }

  /// Pointer to the start of column j.
  const T* col(index_t j) const { return &(*this)(0, j); }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Non-owning mutable view of a column-major block.
template <typename T>
class BasicMatrixView {
 public:
  using value_type = T;

  BasicMatrixView() = default;
  BasicMatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    FSI_ASSERT(rows >= 0 && cols >= 0 && ld >= rows);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }
  T* data() const { return data_; }

  T& operator()(index_t i, index_t j) const {
    FSI_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * ld_ + i];
  }

  BasicMatrixView block(index_t i, index_t j, index_t bm, index_t bn) const {
    FSI_ASSERT(i >= 0 && j >= 0 && i + bm <= rows_ && j + bn <= cols_);
    return {&(*this)(i, j), bm, bn, ld_};
  }

  T* col(index_t j) const { return &(*this)(0, j); }

  operator BasicConstMatrixView<T>() const {  // NOLINT
    return {data_, rows_, cols_, ld_};
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Owning column-major dense matrix (leading dimension == rows()).
template <typename T>
class BasicMatrix {
 public:
  using value_type = T;

  /// Empty 0 x 0 matrix.
  BasicMatrix() = default;

  /// rows x cols matrix, zero-initialised.
  BasicMatrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(checked_count(rows, cols)) {}

  /// n x n identity.
  static BasicMatrix identity(index_t n) {
    BasicMatrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  /// Deep copy of an arbitrary view (compacts the leading dimension).
  static BasicMatrix copy_of(BasicConstMatrixView<T> v) {
    BasicMatrix m(v.rows(), v.cols());
    for (index_t j = 0; j < v.cols(); ++j)
      for (index_t i = 0; i < v.rows(); ++i) m(i, j) = v(i, j);
    return m;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return rows_; }
  bool empty() const { return data_.empty(); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator()(index_t i, index_t j) {
    FSI_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  const T& operator()(index_t i, index_t j) const {
    FSI_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  BasicMatrixView<T> view() { return {data(), rows_, cols_, rows_}; }
  BasicConstMatrixView<T> view() const { return {data(), rows_, cols_, rows_}; }
  BasicMatrixView<T> block(index_t i, index_t j, index_t bm, index_t bn) {
    return view().block(i, j, bm, bn);
  }
  BasicConstMatrixView<T> block(index_t i, index_t j, index_t bm,
                                index_t bn) const {
    return view().block(i, j, bm, bn);
  }

  operator BasicMatrixView<T>() { return view(); }             // NOLINT
  operator BasicConstMatrixView<T>() const { return view(); }  // NOLINT

  /// Set every entry to \p value.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Memory footprint in bytes (used by the Edison node memory model).
  std::size_t bytes() const { return data_.size() * sizeof(T); }

 private:
  /// Validated element count: dimensions non-negative and rows*cols
  /// representable in std::size_t (the overflow guard index_t's doc comment
  /// points at — serve-originated dimensions are client-controlled).
  static std::size_t checked_count(index_t rows, index_t cols) {
    FSI_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
    const auto r = static_cast<std::size_t>(rows);
    const auto c = static_cast<std::size_t>(cols);
    FSI_CHECK(c == 0 || r <= std::numeric_limits<std::size_t>::max() / c,
              "matrix element count overflows std::size_t");
    return r * c;
  }

  index_t rows_ = 0, cols_ = 0;
  std::vector<T> data_;
};

/// The fp64 default scalar: the paper's precision, and the only one the
/// pre-mixed-precision call sites name.
using ConstMatrixView = BasicConstMatrixView<double>;
using MatrixView = BasicMatrixView<double>;
using Matrix = BasicMatrix<double>;

/// fp32 instantiations for the mixed-precision CLS/WRP stages.
using ConstMatrixViewF = BasicConstMatrixView<float>;
using MatrixViewF = BasicMatrixView<float>;
using MatrixF = BasicMatrix<float>;

/// Copy src into dst (shapes must match; leading dimensions may differ).
void copy(ConstMatrixView src, MatrixView dst);
void copy(ConstMatrixViewF src, MatrixViewF dst);

/// dst := src^T (shapes must be transposes of each other).
void transpose_into(ConstMatrixView src, MatrixView dst);
void transpose_into(ConstMatrixViewF src, MatrixViewF dst);

/// Returns src^T as a fresh matrix.
Matrix transposed(ConstMatrixView src);
MatrixF transposed(ConstMatrixViewF src);

/// Set dst to the identity (dst must be square).
void set_identity(MatrixView dst);
void set_identity(MatrixViewF dst);

/// Set every entry of dst to \p value.
void set_all(MatrixView dst, double value);
void set_all(MatrixViewF dst, float value);

/// Widen an fp32 block into an fp64 destination (shapes must match).
void promote(ConstMatrixViewF src, MatrixView dst);
Matrix promoted(ConstMatrixViewF src);

/// Round an fp64 block to fp32 (shapes must match) — the lossy direction;
/// mixed-precision callers demote inputs once and promote results once.
void demote(ConstMatrixView src, MatrixViewF dst);
MatrixF demoted(ConstMatrixView src);

}  // namespace fsi::dense
