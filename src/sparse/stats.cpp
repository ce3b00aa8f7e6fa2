#include "sparse/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace alsmf {

namespace {

SliceStats stats_from_lengths(const std::vector<nnz_t>& lengths) {
  SliceStats s;
  s.count = static_cast<index_t>(lengths.size());
  if (lengths.empty()) return s;
  s.min = *std::min_element(lengths.begin(), lengths.end());
  s.max = *std::max_element(lengths.begin(), lengths.end());
  s.nnz = std::accumulate(lengths.begin(), lengths.end(), nnz_t{0});
  s.mean = static_cast<double>(s.nnz) / static_cast<double>(s.count);
  double var = 0.0;
  for (auto l : lengths) {
    const double d = static_cast<double>(l) - s.mean;
    var += d * d;
  }
  var /= static_cast<double>(s.count);
  s.stddev = std::sqrt(var);
  s.imbalance = s.mean > 0 ? static_cast<double>(s.max) / s.mean : 0.0;
  s.empty_slices = static_cast<index_t>(
      std::count(lengths.begin(), lengths.end(), nnz_t{0}));

  // Gini: 2*sum(i*x_i_sorted)/(n*sum(x)) - (n+1)/n
  if (s.nnz > 0) {
    std::vector<nnz_t> sorted = lengths;
    std::sort(sorted.begin(), sorted.end());
    long double weighted = 0.0L;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      weighted += static_cast<long double>(i + 1) * static_cast<long double>(sorted[i]);
    }
    const auto n = static_cast<long double>(sorted.size());
    const auto total = static_cast<long double>(s.nnz);
    s.gini = static_cast<double>(2.0L * weighted / (n * total) - (n + 1.0L) / n);
  }
  return s;
}

}  // namespace

std::vector<nnz_t> row_lengths(const Csr& csr) {
  std::vector<nnz_t> lengths(static_cast<std::size_t>(csr.rows()));
  for (index_t u = 0; u < csr.rows(); ++u) {
    lengths[static_cast<std::size_t>(u)] = csr.row_nnz(u);
  }
  return lengths;
}

std::vector<nnz_t> col_lengths(const Csr& csr) {
  std::vector<nnz_t> lengths(static_cast<std::size_t>(csr.cols()), 0);
  for (auto j : csr.col_idx()) ++lengths[static_cast<std::size_t>(j)];
  return lengths;
}

SliceStats row_stats(const Csr& csr) { return stats_from_lengths(row_lengths(csr)); }

SliceStats col_stats(const Csr& csr) { return stats_from_lengths(col_lengths(csr)); }

}  // namespace alsmf
