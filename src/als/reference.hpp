// Sequential reference ALS: Algorithm 1 of the paper with no device
// mapping. Ground truth for the device-kernel variants in tests, and a
// simple host path for small problems.
#pragma once

#include <utility>

#include "als/options.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

struct ReferenceResult {
  Matrix x;  ///< m × k user factors
  Matrix y;  ///< n × k item factors
};

/// Runs options.iterations full ALS iterations (X update then Y update).
/// Y is initialized uniformly in [-0.5, 0.5) scaled by 1/√k from
/// options.seed; X starts at zero (Algorithm 1 line 2).
ReferenceResult reference_als(const Csr& train, const AlsOptions& options);

/// Initializes factor matrices exactly as reference_als / AlsSolver do
/// (shared so device variants and the implicit trainers start from
/// identical state).
void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y);

/// Same, but drawing from a caller-owned generator (which must be seeded
/// with options.seed for the canonical initialization). Lets the solver
/// checkpoint its RNG stream position.
void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y,
                  Rng& rng);

/// One half-update: recomputes every row of `dst` from `src` over the rows
/// of `r` (r rows must correspond to dst rows). Sequential.
void reference_half_update(const Csr& r, const Matrix& src, Matrix& dst,
                           const AlsOptions& options);

}  // namespace alsmf
