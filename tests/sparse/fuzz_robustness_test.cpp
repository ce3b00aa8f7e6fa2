// Failure-injection robustness: corrupted inputs must throw alsmf::Error
// (or parse as valid data), never crash or silently produce wrong
// structures. A deterministic mutation fuzz over the ratings-text and
// Matrix Market parsers.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "sparse/io.hpp"

namespace alsmf {
namespace {

TEST(FuzzRobustness, TextParserSurvivesGarbageLines) {
  Rng rng(252);
  const std::string charset =
      "0123456789 .:-abcdefXYZ%#\t";
  for (int round = 0; round < 100; ++round) {
    std::string blob;
    for (int line = 0; line < 20; ++line) {
      const std::size_t len = rng.bounded(30);
      for (std::size_t i = 0; i < len; ++i) {
        blob.push_back(charset[rng.bounded(charset.size())]);
      }
      blob.push_back('\n');
    }
    std::istringstream in(blob);
    try {
      const Coo coo = read_ratings_text(in);
      EXPECT_GE(coo.rows(), 0);
    } catch (const Error&) {
      // fine: explicit rejection
    } catch (const std::invalid_argument&) {
      // stoll/stod rejection of numeric-looking garbage: acceptable
    } catch (const std::out_of_range&) {
      // overlong numbers: acceptable
    }
  }
}

TEST(FuzzRobustness, MatrixMarketHeaderMutations) {
  const std::string base =
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 2.0\n";
  Rng rng(253);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = base;
    const std::size_t at = rng.bounded(mutated.size());
    mutated[at] = static_cast<char>('!' + rng.bounded(90));
    std::istringstream in(mutated);
    try {
      const Coo coo = read_matrix_market(in);
      EXPECT_LE(coo.nnz(), 2);
    } catch (const Error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

}  // namespace
}  // namespace alsmf
