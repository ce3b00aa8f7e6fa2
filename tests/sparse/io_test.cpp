#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "testing/util.hpp"

namespace alsmf {
namespace {

TEST(IoText, ParsesSpaceSeparated) {
  std::istringstream in("1 2 4.5\n2 1 3\n");
  const Coo coo = read_ratings_text(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 4.5f}));  // 1-based shifted
  EXPECT_EQ(coo.rows(), 2);
  EXPECT_EQ(coo.cols(), 2);
}

TEST(IoText, ParsesMovieLensDoubleColon) {
  std::istringstream in("1::31::2.5\n1::1029::3.0\n");
  const Coo coo = read_ratings_text(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[1].col, 1028);
  EXPECT_FLOAT_EQ(coo.entries()[1].value, 3.0f);
}

TEST(IoText, ParsesCommaSeparated) {
  std::istringstream in("3,4,5\n");
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.entries()[0], (Triplet{2, 3, 5.0f}));
}

TEST(IoText, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n% other comment\n1 1 1\n");
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.nnz(), 1);
}

TEST(IoText, ZeroBasedOption) {
  TextFormat fmt;
  fmt.one_based_ids = false;
  std::istringstream in("0 0 2\n");
  const Coo coo = read_ratings_text(in, fmt);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0f}));
}

TEST(IoText, DimensionHintsEnforced) {
  std::istringstream in("5 5 1\n");
  EXPECT_THROW(read_ratings_text(in, {}, 3, 3), Error);
}

TEST(IoText, ExtraFieldsIgnoredAfterThree) {
  std::istringstream in("1 1 4 978300760\n");  // MovieLens timestamp
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_FLOAT_EQ(coo.entries()[0].value, 4.0f);
}

TEST(IoText, WriteReadRoundTrip) {
  const Coo coo = testing::random_coo(12, 9, 0.3, 5);
  std::stringstream s;
  write_ratings_text(s, coo);
  const Coo back = read_ratings_text(s, {}, coo.rows(), coo.cols());
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (std::size_t i = 0; i < coo.entries().size(); ++i) {
    EXPECT_EQ(coo.entries()[i].row, back.entries()[i].row);
    EXPECT_EQ(coo.entries()[i].col, back.entries()[i].col);
    EXPECT_NEAR(coo.entries()[i].value, back.entries()[i].value, 1e-4);
  }
}

TEST(IoText, MissingFileThrows) {
  EXPECT_THROW(read_ratings_file("/nonexistent/alsmf.txt"), Error);
}

}  // namespace
}  // namespace alsmf
