/// Tests for the selection patterns S1-S4 (Sec. II-B): index sets, block
/// counts, reduction factors, and the SelectedInversion container.

#include <gtest/gtest.h>

#include "fsi/pcyclic/patterns.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::pcyclic;
using dense::index_t;
using dense::Matrix;

TEST(Selection, IndicesMatchPaperFormula) {
  // Paper (1-based): I = {c-q, 2c-q, ..., bc-q}.  L=12, c=4, q=1 gives
  // {3, 7, 11} 1-based = {2, 6, 10} 0-based.
  Selection sel(12, 4, 1);
  EXPECT_EQ(sel.b(), 3);
  const auto idx = sel.indices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 2);
  EXPECT_EQ(idx[1], 6);
  EXPECT_EQ(idx[2], 10);
  EXPECT_TRUE(sel.contains(6));
  EXPECT_FALSE(sel.contains(5));
  EXPECT_FALSE(sel.contains(12));
}

TEST(Selection, QZeroSelectsLastIndex) {
  Selection sel(10, 5, 0);
  const auto idx = sel.indices();
  EXPECT_EQ(idx.back(), 9);  // 1-based L = bc - q with q=0
  EXPECT_TRUE(sel.contains(9));
}

TEST(Selection, InvalidParametersThrow) {
  EXPECT_THROW(Selection(10, 3, 0), util::CheckError);   // c does not divide L
  EXPECT_THROW(Selection(10, 5, 5), util::CheckError);   // q out of range
  EXPECT_THROW(Selection(10, 5, -1), util::CheckError);  // q negative
}

TEST(Selection, BlockCountsMatchPaperTable) {
  // Paper Sec. II-B table: S1 -> b, S2 -> b or b-1, S3/S4 -> bL.
  Selection q0(100, 10, 0);
  Selection q3(100, 10, 3);
  EXPECT_EQ(q0.block_count(Pattern::Diagonal), 10);
  EXPECT_EQ(q0.block_count(Pattern::SubDiagonal), 9);   // q = 0: b - 1
  EXPECT_EQ(q3.block_count(Pattern::SubDiagonal), 10);  // q != 0: b
  EXPECT_EQ(q0.block_count(Pattern::Columns), 1000);
  EXPECT_EQ(q0.block_count(Pattern::Rows), 1000);
  // b * L past index_t's range (a checkpoint header may claim it).
  EXPECT_EQ(Selection(65536, 1, 0).block_count(Pattern::Columns),
            std::int64_t{1} << 32);
}

TEST(Selection, ReductionFactorsMatchPaperTable) {
  // Full inverse has L^2 blocks; reductions are cL, cL, c, c.
  Selection sel(100, 10, 3);
  EXPECT_DOUBLE_EQ(sel.reduction_factor(Pattern::Diagonal), 1000.0);   // cL
  EXPECT_DOUBLE_EQ(sel.reduction_factor(Pattern::SubDiagonal), 1000.0);
  EXPECT_DOUBLE_EQ(sel.reduction_factor(Pattern::Columns), 10.0);      // c
  EXPECT_DOUBLE_EQ(sel.reduction_factor(Pattern::Rows), 10.0);
}

TEST(Selection, MemorySavingExampleFromPaper) {
  // "Typically for (N, L) = (1000, 100) we choose c = sqrt(L) = 10.
  //  Thus we save the memory usage by 90%."
  Selection sel(100, 10, 4);
  EXPECT_DOUBLE_EQ(1.0 / sel.reduction_factor(Pattern::Columns), 0.10);
}

TEST(SelectedInversion, ColumnsPatternSlots) {
  Selection sel(8, 4, 1);  // selected 0-based columns: {2, 6}
  SelectedInversion s(Pattern::Columns, 3, sel);
  EXPECT_EQ(s.size(), 16);
  EXPECT_TRUE(s.contains(0, 2));
  EXPECT_TRUE(s.contains(7, 6));
  EXPECT_FALSE(s.contains(0, 3));

  s.slot(5, 2) = Matrix::identity(3);
  EXPECT_EQ(s.at(5, 2)(0, 0), 1.0);
  EXPECT_THROW(s.slot(5, 3), util::CheckError);
  EXPECT_THROW(s.at(4, 2), util::CheckError);  // in pattern but never filled
}

TEST(SelectedInversion, RowsPatternSlots) {
  Selection sel(6, 3, 0);  // selected rows: {2, 5}
  SelectedInversion s(Pattern::Rows, 2, sel);
  EXPECT_EQ(s.size(), 12);
  EXPECT_TRUE(s.contains(2, 0));
  EXPECT_TRUE(s.contains(5, 5));
  EXPECT_FALSE(s.contains(1, 0));
}

TEST(SelectedInversion, DiagonalAndSubDiagonalSlots) {
  Selection sel(6, 3, 0);  // selected: {2, 5}
  SelectedInversion diag(Pattern::Diagonal, 2, sel);
  EXPECT_EQ(diag.size(), 2);
  EXPECT_TRUE(diag.contains(2, 2));
  EXPECT_FALSE(diag.contains(2, 3));

  SelectedInversion sub(Pattern::SubDiagonal, 2, sel);
  EXPECT_EQ(sub.size(), 1);  // k = 5 = L-1 excluded
  EXPECT_TRUE(sub.contains(2, 3));
  EXPECT_FALSE(sub.contains(5, 0));
}

TEST(SelectedInversion, KeysEnumerateThePattern) {
  Selection sel(4, 2, 1);  // selected: {0, 2}
  SelectedInversion s(Pattern::Columns, 1, sel);
  const auto& keys = s.keys();
  ASSERT_EQ(keys.size(), 8u);
  EXPECT_EQ(keys[0], std::make_pair(index_t{0}, index_t{0}));
  EXPECT_EQ(keys[4], std::make_pair(index_t{0}, index_t{2}));
}

TEST(SelectedInversion, BytesTracksStoredBlocks) {
  Selection sel(4, 2, 0);
  SelectedInversion s(Pattern::Diagonal, 10, sel);
  EXPECT_EQ(s.bytes(), 0u);
  s.slot(1, 1) = Matrix(10, 10);
  EXPECT_EQ(s.bytes(), 100 * sizeof(double));
}

TEST(Selection, PatternNamesAreStable) {
  EXPECT_STREQ(pattern_name(Pattern::Diagonal), "diagonal");
  EXPECT_STREQ(pattern_name(Pattern::Columns), "columns");
}

}  // namespace
