// Dataset I/O: the paper's `<userID, itemID, rating>` text format and
// Matrix Market coordinate files.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/coo.hpp"

namespace alsmf {

/// Options for parsing `<userID, itemID, rating>` text files
/// (MovieLens `::`-separated, Netflix/Yahoo whitespace or comma separated).
struct TextFormat {
  /// Accepted field separators; any of these characters splits fields.
  std::string separators = " \t,:";
  /// Whether IDs in the file are 1-based (MovieLens) and must be shifted.
  bool one_based_ids = true;
  /// Lines starting with any of these characters are skipped.
  std::string comment_chars = "#%";
};

/// Parses rating triplets from a stream. Grows dimensions to fit the data
/// unless rows/cols hints are provided (then out-of-range entries throw).
Coo read_ratings_text(std::istream& in, const TextFormat& fmt = {},
                      index_t rows_hint = 0, index_t cols_hint = 0);

/// Convenience file wrapper around read_ratings_text.
Coo read_ratings_file(const std::string& path, const TextFormat& fmt = {});

/// Writes triplets as `user item rating` lines (1-based when fmt says so).
void write_ratings_text(std::ostream& out, const Coo& coo,
                        const TextFormat& fmt = {});

/// Matrix Market coordinate format (the sparse-matrix community's
/// interchange format): `%%MatrixMarket matrix coordinate real general`,
/// a `rows cols nnz` size line, then 1-based `row col value` triplets.
/// `pattern` matrices read with value 1; `symmetric` matrices are
/// expanded. Throws on other qualifiers.
Coo read_matrix_market(std::istream& in);
Coo read_matrix_market_file(const std::string& path);
void write_matrix_market(std::ostream& out, const Coo& coo);
void write_matrix_market_file(const std::string& path, const Coo& coo);

}  // namespace alsmf
