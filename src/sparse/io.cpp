#include "sparse/io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace alsmf {

namespace {

/// Splits a line on any of the separator characters, collapsing runs.
void split_fields(const std::string& line, const std::string& seps,
                  std::vector<std::string>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && seps.find(line[i]) != std::string::npos) ++i;
    std::size_t j = i;
    while (j < line.size() && seps.find(line[j]) == std::string::npos) ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
}

}  // namespace

Coo read_ratings_text(std::istream& in, const TextFormat& fmt,
                      index_t rows_hint, index_t cols_hint) {
  std::vector<Triplet> raw;
  index_t max_row = -1, max_col = -1;
  std::string line;
  std::vector<std::string> fields;
  const index_t base = fmt.one_based_ids ? 1 : 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (fmt.comment_chars.find(line[0]) != std::string::npos) continue;
    split_fields(line, fmt.separators, fields);
    if (fields.size() < 3) continue;  // tolerate ragged trailer lines
    const index_t u = static_cast<index_t>(std::stoll(fields[0])) - base;
    const index_t i = static_cast<index_t>(std::stoll(fields[1])) - base;
    const real v = static_cast<real>(std::stod(fields[2]));
    ALSMF_CHECK_MSG(u >= 0 && i >= 0, "negative id after base adjustment");
    raw.push_back({u, i, v});
    max_row = std::max(max_row, u);
    max_col = std::max(max_col, i);
  }
  const index_t rows = rows_hint > 0 ? rows_hint : max_row + 1;
  const index_t cols = cols_hint > 0 ? cols_hint : max_col + 1;
  Coo coo(rows, cols);
  coo.reserve(static_cast<nnz_t>(raw.size()));
  for (const auto& t : raw) coo.add(t.row, t.col, t.value);
  return coo;
}

Coo read_ratings_file(const std::string& path, const TextFormat& fmt) {
  std::ifstream in(path);
  ALSMF_CHECK_MSG(in.good(), "cannot open ratings file: " + path);
  return read_ratings_text(in, fmt);
}

void write_ratings_text(std::ostream& out, const Coo& coo,
                        const TextFormat& fmt) {
  const index_t base = fmt.one_based_ids ? 1 : 0;
  for (const auto& t : coo.entries()) {
    out << (t.row + base) << ' ' << (t.col + base) << ' ' << t.value << '\n';
  }
}

Coo read_matrix_market(std::istream& in) {
  std::string line;
  ALSMF_CHECK_MSG(std::getline(in, line), "empty MatrixMarket stream");
  std::vector<std::string> fields;
  split_fields(line, " \t", fields);
  ALSMF_CHECK_MSG(fields.size() >= 4 && fields[0] == "%%MatrixMarket" &&
                      fields[1] == "matrix" && fields[2] == "coordinate",
                  "not a MatrixMarket coordinate header");
  const std::string& value_type = fields[3];
  ALSMF_CHECK_MSG(value_type == "real" || value_type == "integer" ||
                      value_type == "pattern",
                  "unsupported MatrixMarket value type: " + value_type);
  const bool pattern = value_type == "pattern";
  bool symmetric = false;
  if (fields.size() >= 5) {
    if (fields[4] == "symmetric") {
      symmetric = true;
    } else {
      ALSMF_CHECK_MSG(fields[4] == "general",
                      "unsupported MatrixMarket symmetry: " + fields[4]);
    }
  }

  // Skip comments, read the size line.
  index_t rows = 0, cols = 0;
  nnz_t nnz = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    split_fields(line, " \t", fields);
    ALSMF_CHECK_MSG(fields.size() >= 3, "bad MatrixMarket size line");
    rows = static_cast<index_t>(std::stoll(fields[0]));
    cols = static_cast<index_t>(std::stoll(fields[1]));
    nnz = static_cast<nnz_t>(std::stoll(fields[2]));
    break;
  }
  ALSMF_CHECK_MSG(rows > 0 && cols > 0, "missing MatrixMarket size line");

  Coo coo(rows, cols);
  coo.reserve(symmetric ? 2 * nnz : nnz);
  nnz_t read = 0;
  while (read < nnz && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    split_fields(line, " \t", fields);
    ALSMF_CHECK_MSG(fields.size() >= (pattern ? 2u : 3u),
                    "bad MatrixMarket entry line");
    const index_t r = static_cast<index_t>(std::stoll(fields[0])) - 1;
    const index_t c = static_cast<index_t>(std::stoll(fields[1])) - 1;
    const real v =
        pattern ? real{1} : static_cast<real>(std::stod(fields[2]));
    coo.add(r, c, v);
    if (symmetric && r != c) coo.add(c, r, v);
    ++read;
  }
  ALSMF_CHECK_MSG(read == nnz, "truncated MatrixMarket stream");
  coo.sort_row_major();
  return coo;
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  ALSMF_CHECK_MSG(in.good(), "cannot open MatrixMarket file: " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Coo& coo) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by alsmf\n";
  out << coo.rows() << " " << coo.cols() << " " << coo.nnz() << "\n";
  for (const auto& t : coo.entries()) {
    out << (t.row + 1) << " " << (t.col + 1) << " " << t.value << "\n";
  }
}

void write_matrix_market_file(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  write_matrix_market(out, coo);
}

}  // namespace alsmf
