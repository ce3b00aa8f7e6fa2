// Hyperparameter search: grid search over (k, lambda) with a validation
// split. Each grid point trains an AlsSolver on its own modeled K20c, so
// every RMSE it reports comes from the priced device kernels.
#pragma once

#include <vector>

#include "als/options.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

struct TuningGrid {
  std::vector<int> ks = {5, 10, 20};
  std::vector<real> lambdas = {0.01f, 0.05f, 0.1f, 0.5f};
  int iterations = 10;
  bool weighted_regularization = false;
  double validation_fraction = 0.1;
  std::uint64_t seed = 42;
};

struct TuningCandidate {
  int k = 0;
  real lambda = 0;
  double validation_rmse = 0;
  double train_rmse = 0;
};

struct TuningResult {
  TuningCandidate best;
  std::vector<TuningCandidate> all;  ///< every grid point, sorted by RMSE
};

/// Splits `ratings` into train/validation, trains every grid point (the
/// points are the items of one parallel_for on the global pool), and
/// returns the candidates ordered by validation RMSE (best first).
TuningResult grid_search(const Coo& ratings, const TuningGrid& grid);

}  // namespace alsmf
