// Shared test helpers.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <vector>

#include "common/rng.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace alsmf::testing {

/// Random sparse matrix with ~density fraction of cells set; values in
/// [1, 5]; canonical order.
inline Coo random_coo(index_t rows, index_t cols, double density,
                      std::uint64_t seed) {
  Rng rng(seed);
  Coo coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.uniform() < density) {
        coo.add(r, c, static_cast<real>(1.0 + 4.0 * rng.uniform()));
      }
    }
  }
  return coo;
}

inline Csr random_csr(index_t rows, index_t cols, double density,
                      std::uint64_t seed) {
  return coo_to_csr(random_coo(rows, cols, density, seed));
}

/// The fault-plan seed of the fault-drawing tests: ALSMF_FAULT_SEED when it
/// is set (CI sweeps it), else 42. A value that is not wholly a
/// non-negative decimal integer fails the calling test, so a mistyped sweep
/// cannot quietly rerun one seed.
inline std::uint64_t fault_seed() {
  const char* env = std::getenv("ALSMF_FAULT_SEED");
  if (env == nullptr) return 42;
  std::uint64_t seed = 0;
  const char* end = env + std::strlen(env);
  const auto [stop, ec] = std::from_chars(env, end, seed);
  if (ec != std::errc{} || stop != end) {
    ADD_FAILURE() << "ALSMF_FAULT_SEED expects a non-negative integer, got '"
                  << env << "'";
  }
  return seed;
}

/// Random SPD k×k matrix A = BᵀB + I (row-major into `a`).
inline std::vector<real> random_spd(int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> b(static_cast<std::size_t>(k) * k);
  for (auto& v : b) v = static_cast<real>(rng.uniform(-1.0, 1.0));
  std::vector<real> a(static_cast<std::size_t>(k) * k, real{0});
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      real s = (i == j) ? real{1} : real{0};
      for (int p = 0; p < k; ++p) s += b[p * k + i] * b[p * k + j];
      a[i * k + j] = s;
    }
  }
  return a;
}

}  // namespace alsmf::testing
