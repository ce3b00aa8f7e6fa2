// The starting factors of Algorithm 1 (line 2): X ← 0, and Y uniform in
// [-0.5, 0.5) scaled by 1/√k from options.seed. Shared by every trainer, so
// the device variants, the multi-device and implicit trainers and the
// baselines all start from identical state.
#pragma once

#include "als/options.hpp"
#include "common/rng.hpp"
#include "linalg/dense.hpp"

namespace alsmf {

/// Sizes x to users × k (zeros) and y to items × k (uniform, from a
/// generator seeded with options.seed).
void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y);

/// Same, but drawing from a caller-owned generator (which must be seeded
/// with options.seed for the canonical initialization). Lets the solver
/// checkpoint its RNG stream position.
void init_factors(index_t users, index_t items,
                  const FactorOptionsBase& options, Matrix& x, Matrix& y,
                  Rng& rng);

}  // namespace alsmf
