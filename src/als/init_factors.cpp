#include "als/init_factors.hpp"

#include <cmath>

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

}  // namespace alsmf
