// Sequential reference ALS: Algorithm 1 of the paper with no device
// mapping, one row after another on the calling thread. The serial oracle
// the device-kernel variants and trainers are checked against; it never
// launches a kernel.
#pragma once

#include <algorithm>
#include <vector>

#include "als/init_factors.hpp"
#include "als/options.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "linalg/dense.hpp"
#include "sparse/convert.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

struct ReferenceResult {
  Matrix x;  ///< m × k user factors
  Matrix y;  ///< n × k item factors
};

/// One half-update: recomputes every row of `dst` from `src` over the rows
/// of `r` (r rows must correspond to dst rows). Sequential.
inline void reference_half_update(const Csr& r, const Matrix& src, Matrix& dst,
                                  const AlsOptions& options) {
  ALSMF_CHECK(r.rows() == dst.rows());
  ALSMF_CHECK(r.cols() == src.rows());
  const int k = options.k;
  std::vector<real> smat(static_cast<std::size_t>(k) * k);
  std::vector<real> svec(static_cast<std::size_t>(k));
  for (index_t u = 0; u < r.rows(); ++u) {
    auto row = dst.row(u);
    if (r.row_nnz(u) == 0) {
      std::fill(row.begin(), row.end(), real{0});
      continue;
    }
    const real lambda = options.weighted_regularization
                            ? options.lambda * static_cast<real>(r.row_nnz(u))
                            : options.lambda;
    assemble_normal_equations(r.row_cols(u), r.row_values(u), src, lambda, k,
                              smat.data(), svec.data());
    solve_normal_equations(smat.data(), svec.data(), k, options.solver);
    std::copy(svec.begin(), svec.end(), row.begin());
  }
}

/// Runs options.iterations full ALS iterations (X update then Y update).
/// Y is initialized uniformly in [-0.5, 0.5) scaled by 1/√k from
/// options.seed; X starts at zero (Algorithm 1 line 2).
inline ReferenceResult reference_als(const Csr& train,
                                     const AlsOptions& options) {
  ReferenceResult result;
  init_factors(train.rows(), train.cols(), options, result.x, result.y);
  const Csr train_t = transpose(train);
  for (int it = 0; it < options.iterations; ++it) {
    reference_half_update(train, result.y, result.x, options);
    reference_half_update(train_t, result.x, result.y, options);
  }
  return result;
}

}  // namespace alsmf
