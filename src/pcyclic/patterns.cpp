#include "fsi/pcyclic/patterns.hpp"

#include "fsi/util/check.hpp"

namespace fsi::pcyclic {

using dense::index_t;

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Diagonal: return "diagonal";
    case Pattern::SubDiagonal: return "sub-diagonal";
    case Pattern::Columns: return "columns";
    case Pattern::Rows: return "rows";
    case Pattern::AllDiagonals: return "all-diagonals";
  }
  return "?";
}

Selection::Selection(index_t l_total_, index_t c_, index_t q_)
    : l_total(l_total_), c(c_), q(q_) {
  FSI_CHECK(l_total > 0 && c > 0, "Selection: L and c must be positive");
  FSI_CHECK(l_total % c == 0, "Selection: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "Selection: q must be in [0, c)");
}

std::vector<index_t> Selection::indices() const {
  std::vector<index_t> idx;
  idx.reserve(static_cast<std::size_t>(b()));
  for (index_t j = 0; j < b(); ++j) idx.push_back((j + 1) * c - q - 1);
  return idx;
}

bool Selection::contains(index_t i) const {
  return i >= 0 && i < l_total && (i + q + 1) % c == 0;
}

index_t Selection::block_count(Pattern pattern) const {
  switch (pattern) {
    case Pattern::Diagonal:
      return b();
    case Pattern::SubDiagonal:
      // G(k, k+1) is excluded when k = L-1 (the paper's k = L case),
      // which is selected exactly when q = 0.
      return (q == 0) ? b() - 1 : b();
    case Pattern::Columns:
    case Pattern::Rows:
      return b() * l_total;
    case Pattern::AllDiagonals:
      return l_total;
  }
  return 0;
}

double Selection::reduction_factor(Pattern pattern) const {
  const double full = static_cast<double>(l_total) * l_total;
  return full / static_cast<double>(block_count(pattern));
}

SelectedInversion::SelectedInversion(Pattern pattern, index_t block_size,
                                     Selection sel)
    : pattern_(pattern), n_(block_size), sel_(sel), selected_(sel.indices()) {
  position_of_.assign(static_cast<std::size_t>(sel_.l_total), -1);
  for (index_t p = 0; p < static_cast<index_t>(selected_.size()); ++p)
    position_of_[static_cast<std::size_t>(selected_[p])] = p;

  const index_t l = sel_.l_total;
  switch (pattern_) {
    case Pattern::Diagonal:
      for (index_t k : selected_) keys_.emplace_back(k, k);
      break;
    case Pattern::SubDiagonal:
      for (index_t k : selected_)
        if (k != l - 1) keys_.emplace_back(k, k + 1);
      break;
    case Pattern::Columns:
      for (index_t col : selected_)
        for (index_t k = 0; k < l; ++k) keys_.emplace_back(k, col);
      break;
    case Pattern::Rows:
      for (index_t row : selected_)
        for (index_t col = 0; col < l; ++col) keys_.emplace_back(row, col);
      break;
    case Pattern::AllDiagonals:
      for (index_t k = 0; k < l; ++k) keys_.emplace_back(k, k);
      break;
  }
  blocks_.resize(keys_.size());
}

index_t SelectedInversion::slot_index(index_t k, index_t l) const {
  const index_t lt = sel_.l_total;
  if (k < 0 || k >= lt || l < 0 || l >= lt) return -1;
  switch (pattern_) {
    case Pattern::Diagonal: {
      if (k != l) return -1;
      return position_of_[static_cast<std::size_t>(k)];
    }
    case Pattern::SubDiagonal: {
      if (l != k + 1) return -1;
      const index_t pos = position_of_[static_cast<std::size_t>(k)];
      if (pos < 0) return -1;
      // Slot order skips a selected k = L-1 (which has no sub-diagonal
      // block); selected indices are ascending so that can only be the last.
      return pos;
    }
    case Pattern::Columns: {
      const index_t pos = position_of_[static_cast<std::size_t>(l)];
      if (pos < 0) return -1;
      return pos * lt + k;
    }
    case Pattern::Rows: {
      const index_t pos = position_of_[static_cast<std::size_t>(k)];
      if (pos < 0) return -1;
      return pos * lt + l;
    }
    case Pattern::AllDiagonals:
      return (k == l) ? k : -1;
  }
  return -1;
}

bool SelectedInversion::contains(index_t k, index_t l) const {
  return slot_index(k, l) >= 0;
}

dense::Matrix& SelectedInversion::slot(index_t k, index_t l) {
  const index_t s = slot_index(k, l);
  FSI_CHECK(s >= 0, "SelectedInversion: block (k, l) not in the pattern");
  return blocks_[static_cast<std::size_t>(s)];
}

const dense::Matrix& SelectedInversion::at(index_t k, index_t l) const {
  const index_t s = slot_index(k, l);
  FSI_CHECK(s >= 0, "SelectedInversion: block (k, l) not in the pattern");
  const dense::Matrix& m = blocks_[static_cast<std::size_t>(s)];
  FSI_CHECK(!m.empty(), "SelectedInversion: block (k, l) was never computed");
  return m;
}

std::size_t SelectedInversion::bytes() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.bytes();
  return total;
}

}  // namespace fsi::pcyclic
