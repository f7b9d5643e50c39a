#pragma once
/// \file patterns.hpp
/// \brief Selected-inversion patterns (Sec. II-B of the paper) and the
/// container holding a computed selected inversion.
///
/// The index set is the paper's I = {c-q, 2c-q, ..., bc-q} (1-based) with
/// b = L/c and q uniform in [0, c); in the 0-based convention used here the
/// selected indices are {(j+1)c - q - 1 : j = 0..b-1}.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fsi/dense/matrix.hpp"

namespace fsi::pcyclic {

/// The four selection patterns of Fig. 2, plus the all-diagonals pattern
/// used by the equal-time measurements of the DQMC experiments (Fig. 10:
/// "we compute all diagonal blocks, b block rows and b block columns").
enum class Pattern {
  Diagonal,      ///< S1: b diagonal blocks G(k, k), k in I
  SubDiagonal,   ///< S2: b (or b-1) blocks G(k, k+1), k in I \ {L-1}
  Columns,       ///< S3: b full block columns G(:, l), l in I
  Rows,          ///< S4: b full block rows G(k, :), k in I
  AllDiagonals,  ///< all L diagonal blocks G(k, k), grown from the b seeds
};

const char* pattern_name(Pattern p);

/// A (L, c, q) selection.  Requires c to divide L and 0 <= q < c.
struct Selection {
  dense::index_t l_total;  ///< L: number of block rows/cols
  dense::index_t c;        ///< cluster factor
  dense::index_t q;        ///< random offset in [0, c)

  Selection(dense::index_t l_total, dense::index_t c, dense::index_t q);

  dense::index_t b() const { return l_total / c; }

  /// The 0-based selected indices, ascending.
  std::vector<dense::index_t> indices() const;

  /// True iff \p i is a selected index.
  bool contains(dense::index_t i) const;

  /// Number of selected N x N blocks for \p pattern (paper Sec. II-B table),
  /// in 64 bits: b * L leaves index_t's range once L passes ~46000 at c = 1.
  std::int64_t block_count(Pattern pattern) const;

  /// Memory reduction factor vs storing the full L^2-block inverse
  /// (paper Sec. II-B table: cL, cL, c, c).
  double reduction_factor(Pattern pattern) const;
};

/// Storage for a computed selected inversion: the set S of N x N blocks,
/// addressable by (k, l).  Slots are preallocated per pattern so the
/// wrapping stage can fill them from concurrent OpenMP threads without
/// locking.
class SelectedInversion {
 public:
  SelectedInversion(Pattern pattern, dense::index_t block_size, Selection sel);

  Pattern pattern() const { return pattern_; }
  const Selection& selection() const { return sel_; }
  dense::index_t block_size() const { return n_; }

  /// True iff block (k, l) belongs to the pattern.
  bool contains(dense::index_t k, dense::index_t l) const;

  /// Mutable slot for block (k, l); throws if outside the pattern.
  /// Thread-safe for distinct (k, l).
  dense::Matrix& slot(dense::index_t k, dense::index_t l);

  /// Read a stored block.
  const dense::Matrix& at(dense::index_t k, dense::index_t l) const;

  /// All (k, l) keys of the pattern, in slot order.
  const std::vector<std::pair<dense::index_t, dense::index_t>>& keys() const {
    return keys_;
  }

  /// Total number of blocks in the pattern.
  dense::index_t size() const { return static_cast<dense::index_t>(keys_.size()); }

  /// Bytes of block storage (for the memory-reduction experiments).
  std::size_t bytes() const;

 private:
  dense::index_t slot_index(dense::index_t k, dense::index_t l) const;

  Pattern pattern_;
  dense::index_t n_;
  Selection sel_;
  std::vector<dense::index_t> selected_;             // ascending selected indices
  std::vector<dense::index_t> position_of_;          // index -> position or -1
  std::vector<dense::Matrix> blocks_;
  std::vector<std::pair<dense::index_t, dense::index_t>> keys_;
};

}  // namespace fsi::pcyclic
