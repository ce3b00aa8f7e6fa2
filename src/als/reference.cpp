#include "als/reference.hpp"

#include <cmath>
#include <vector>

#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y) {
  Rng rng(options.seed);
  init_factors(users, items, options, x, y, rng);
}

void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y,
                  Rng& rng) {
  x = Matrix(users, options.k, real{0});
  y = Matrix(items, options.k);
  const real scale =
      static_cast<real>(1.0 / std::sqrt(static_cast<double>(options.k)));
  y.fill_uniform(rng, -0.5f * scale, 0.5f * scale);
}

void reference_half_update(const Csr& r, const Matrix& src, Matrix& dst,
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

ReferenceResult reference_als(const Csr& train, const AlsOptions& options) {
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
