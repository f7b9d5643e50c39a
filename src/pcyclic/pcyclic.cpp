#include "fsi/pcyclic/pcyclic.hpp"

#include "fsi/dense/blas.hpp"

namespace fsi::pcyclic {

PCyclicMatrix::PCyclicMatrix(index_t block_size, index_t num_blocks)
    : n_(block_size), l_(num_blocks) {
  FSI_CHECK(block_size > 0 && num_blocks > 0,
            "PCyclicMatrix: need positive block size and count");
  blocks_.reserve(static_cast<std::size_t>(num_blocks));
  for (index_t i = 0; i < num_blocks; ++i) blocks_.emplace_back(n_, n_);
}

PCyclicMatrix::PCyclicMatrix(std::vector<Matrix> blocks)
    : blocks_(std::move(blocks)) {
  FSI_CHECK(!blocks_.empty(), "PCyclicMatrix: need at least one block");
  n_ = blocks_.front().rows();
  l_ = static_cast<index_t>(blocks_.size());
  for (const Matrix& b : blocks_)
    FSI_CHECK(b.rows() == n_ && b.cols() == n_,
              "PCyclicMatrix: all blocks must be square with equal size");
}

PCyclicMatrix PCyclicMatrix::random(index_t block_size, index_t num_blocks,
                                    util::Rng& rng) {
  PCyclicMatrix m(block_size, num_blocks);
  const double scale = 0.5 / static_cast<double>(block_size);
  for (index_t i = 0; i < num_blocks; ++i) {
    MatrixView b = m.b(i);
    for (index_t cj = 0; cj < block_size; ++cj)
      for (index_t ci = 0; ci < block_size; ++ci)
        b(ci, cj) = rng.uniform(-scale, scale);
    for (index_t d = 0; d < block_size; ++d) b(d, d) += 0.5;
  }
  return m;
}

MatrixView PCyclicMatrix::b(index_t i) {
  FSI_CHECK(i >= 0 && i < l_, "PCyclicMatrix: block index out of range");
  return blocks_[static_cast<std::size_t>(i)].view();
}

ConstMatrixView PCyclicMatrix::b(index_t i) const {
  FSI_CHECK(i >= 0 && i < l_, "PCyclicMatrix: block index out of range");
  return blocks_[static_cast<std::size_t>(i)].view();
}

Matrix& PCyclicMatrix::b_matrix(index_t i) {
  FSI_CHECK(i >= 0 && i < l_, "PCyclicMatrix: block index out of range");
  return blocks_[static_cast<std::size_t>(i)];
}

const Matrix& PCyclicMatrix::b_matrix(index_t i) const {
  FSI_CHECK(i >= 0 && i < l_, "PCyclicMatrix: block index out of range");
  return blocks_[static_cast<std::size_t>(i)];
}

Matrix PCyclicMatrix::to_dense() const {
  Matrix m(dim(), dim());
  for (index_t d = 0; d < dim(); ++d) m(d, d) = 1.0;
  // Corner block +B_1 at block position (0, L-1); for L == 1 the "corner"
  // coincides with the diagonal: M = I + B_1.
  {
    MatrixView corner = m.block(0, (l_ - 1) * n_, n_, n_);
    ConstMatrixView b1 = b(0);
    for (index_t j = 0; j < n_; ++j)
      for (index_t i = 0; i < n_; ++i) corner(i, j) += b1(i, j);
  }
  // Subdiagonal blocks -B_{i+1} at block positions (i, i-1).
  for (index_t i = 1; i < l_; ++i) {
    MatrixView sub = m.block(i * n_, (i - 1) * n_, n_, n_);
    ConstMatrixView bi = b(i);
    for (index_t j = 0; j < n_; ++j)
      for (index_t r = 0; r < n_; ++r) sub(r, j) -= bi(r, j);
  }
  return m;
}

std::size_t PCyclicMatrix::bytes() const {
  std::size_t total = 0;
  for (const Matrix& b : blocks_) total += b.bytes();
  return total;
}

Matrix chain_product(const PCyclicMatrix& m, index_t k, index_t l) {
  const index_t count = m.wrap(k - l);
  Matrix prod = Matrix::identity(m.block_size());
  // Multiply from the right: prod := B[k] (B[k-1] (... B[l+1])).
  for (index_t t = 0; t < count; ++t) {
    const index_t j = m.wrap(l + 1 + t);
    Matrix next = dense::matmul(m.b(j), prod);
    prod = std::move(next);
  }
  return prod;
}

Matrix w_matrix(const PCyclicMatrix& m, index_t k) {
  // Full chain B[k] ... B[k+1]: the (k - (k+1)) mod L = L-1 factor chain
  // times the final B[k+1]... equivalently build it directly.
  Matrix prod = Matrix::identity(m.block_size());
  for (index_t t = 0; t < m.num_blocks(); ++t) {
    const index_t j = m.wrap(k + 1 + t);
    Matrix next = dense::matmul(m.b(j), prod);
    prod = std::move(next);
  }
  for (index_t d = 0; d < m.block_size(); ++d) prod(d, d) += 1.0;
  return prod;
}

}  // namespace fsi::pcyclic
