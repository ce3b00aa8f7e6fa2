#include "sparse/stats.hpp"

#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

Csr ladder_matrix() {
  // Row u has u+1 entries: lengths 1, 2, 3, 4.
  Coo coo(4, 4);
  for (index_t u = 0; u < 4; ++u) {
    for (index_t c = 0; c <= u; ++c) coo.add(u, c, 1.0f);
  }
  return coo_to_csr(coo);
}

TEST(Stats, RowStatsLadder) {
  const SliceStats s = row_stats(ladder_matrix());
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.nnz, 10);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.imbalance, 4 / 2.5);
  EXPECT_EQ(s.empty_slices, 0);
}

TEST(Stats, ColStatsLadder) {
  const SliceStats s = col_stats(ladder_matrix());
  // Column c appears in rows c..3: lengths 4, 3, 2, 1.
  EXPECT_EQ(s.max, 4);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.nnz, 10);
}

TEST(Stats, UniformMatrixHasZeroGini) {
  Coo coo(6, 6);
  for (index_t u = 0; u < 6; ++u) {
    coo.add(u, 0, 1.0f);
    coo.add(u, 3, 1.0f);
  }
  const SliceStats s = row_stats(coo_to_csr(coo));
  EXPECT_NEAR(s.gini, 0.0, 1e-9);
  EXPECT_NEAR(s.stddev, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
}

TEST(Stats, SkewedMatrixHasPositiveGini) {
  Coo coo(10, 20);
  for (index_t c = 0; c < 20; ++c) coo.add(0, c, 1.0f);  // one heavy row
  coo.add(5, 0, 1.0f);
  const SliceStats s = row_stats(coo_to_csr(coo));
  EXPECT_GT(s.gini, 0.5);
  EXPECT_GT(s.imbalance, 4.0);
  EXPECT_EQ(s.empty_slices, 8);
}

TEST(Stats, RowAndColLengthsSumToNnz) {
  const Csr csr = testing::random_csr(40, 25, 0.2, 11);
  nnz_t row_sum = 0, col_sum = 0;
  for (auto l : row_lengths(csr)) row_sum += l;
  for (auto l : col_lengths(csr)) col_sum += l;
  EXPECT_EQ(row_sum, csr.nnz());
  EXPECT_EQ(col_sum, csr.nnz());
}

}  // namespace
}  // namespace alsmf
