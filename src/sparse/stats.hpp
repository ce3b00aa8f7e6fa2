// Row/column length statistics of the rating matrix: the skew behind the
// paper's motivation (uneven row lengths => warp divergence), as printed by
// the dataset table and the examples. The code-variant selector computes
// its own features (variant_select.cpp) and does not read these.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace alsmf {

/// Summary of nonzeros-per-slice (row or column) distribution.
struct SliceStats {
  index_t count = 0;     ///< number of rows (or columns)
  nnz_t nnz = 0;         ///< total stored entries
  nnz_t min = 0;         ///< shortest slice
  nnz_t max = 0;         ///< longest slice
  double mean = 0.0;
  double stddev = 0.0;
  /// max / mean: the load-imbalance factor a flat one-thread-per-row mapping
  /// suffers inside a warp.
  double imbalance = 0.0;
  /// Gini coefficient of slice lengths in [0, 1); 0 = perfectly even.
  double gini = 0.0;
  index_t empty_slices = 0;
};

/// Statistics over rows of a CSR matrix.
SliceStats row_stats(const Csr& csr);

/// Statistics over columns of a CSR matrix (via column counting).
SliceStats col_stats(const Csr& csr);

/// Slice lengths helper.
std::vector<nnz_t> row_lengths(const Csr& csr);
std::vector<nnz_t> col_lengths(const Csr& csr);

}  // namespace alsmf
