#include "linalg/dense.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace alsmf {
namespace {

TEST(Matrix, ShapeAndFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m(2, 3), 2.5f);
  m.fill(0.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m(2, 3);
  m(1, 0) = 1;
  m(1, 1) = 2;
  m(1, 2) = 3;
  auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_FLOAT_EQ(row[1], 2.0f);
  row[1] = 9;
  EXPECT_FLOAT_EQ(m(1, 1), 9.0f);
}

TEST(Matrix, FillUniformRespectsRange) {
  Matrix m(10, 10);
  Rng rng(1);
  m.fill_uniform(rng, -0.5f, 0.5f);
  for (index_t r = 0; r < 10; ++r) {
    for (index_t c = 0; c < 10; ++c) {
      EXPECT_GE(m(r, c), -0.5f);
      EXPECT_LT(m(r, c), 0.5f);
    }
  }
}

TEST(Matrix, Frob2) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.frob2(), 25.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
  b(1, 0) = 1.5f;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
}

TEST(Matrix, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(max_abs_diff(a, b), Error);
}

TEST(Dense, GramFullMatchesManual) {
  // A = [[1,2],[3,4],[5,6]]; AᵀA = [[35,44],[44,56]].
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  a(2, 0) = 5; a(2, 1) = 6;
  std::vector<real> g(4);
  gram_full(a, 0.5f, g.data());
  EXPECT_FLOAT_EQ(g[0], 35.5f);  // +lambda on diagonal
  EXPECT_FLOAT_EQ(g[1], 44.0f);
  EXPECT_FLOAT_EQ(g[2], 44.0f);  // symmetric
  EXPECT_FLOAT_EQ(g[3], 56.5f);
}

TEST(Dense, AtxMatchesManual) {
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  a(2, 0) = 5; a(2, 1) = 6;
  std::vector<real> x = {1, 1, 1};
  std::vector<real> out(2);
  atx(a, x, out.data());
  EXPECT_FLOAT_EQ(out[0], 9.0f);
  EXPECT_FLOAT_EQ(out[1], 12.0f);
}

TEST(Matrix, EqualityOperator) {
  Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0f;
  EXPECT_NE(a, b);
}

TEST(ProductTable, RowIsWholeVectors) {
  // accumulate_products sums a table row in whole vectors of 4 reals: the
  // padded products, then y from a vector boundary, padded to the end.
  for (int k = 1; k <= 100; ++k) {
    SCOPED_TRACE(k);
    Matrix y(3, static_cast<index_t>(k), 1.0f);
    ProductTable table;
    table.build(y);
    const auto ku = static_cast<std::size_t>(k);
    EXPECT_EQ(table.y_offset() % 4, 0u);
    EXPECT_GE(table.y_offset(), ProductTable::products(k));
    EXPECT_EQ(ProductTable::stride(k), table.y_offset() + (ku + 3) / 4 * 4);
  }
}

}  // namespace
}  // namespace alsmf
