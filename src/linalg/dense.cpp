#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

namespace alsmf {

double max_abs_diff(const Matrix& a, const Matrix& b) {
  ALSMF_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  const real* pa = a.data();
  const real* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(pa[i]) - static_cast<double>(pb[i])));
  }
  return m;
}

namespace {

constexpr int kTile = 4;

struct GatheredRows {
  const real* const* rows;
  const real* operator()(std::size_t p) const { return rows[p]; }
};

struct ContiguousRows {
  const real* base;
  std::size_t k;
  const real* operator()(std::size_t p) const { return base + p * k; }
};

/// The NI×NJ tile of `gram` at (i0, j0), summed over rows [p0, p1) in
/// locals. A diagonal tile (i0 == j0) skips its lower half on load and
/// store; the products it computes there are discarded.
template <int NI, int NJ, class Rows>
void gram_tile(const Rows& row, std::size_t p0, std::size_t p1, int i0,
               int j0, std::size_t k, real* gram) {
  const bool diag = i0 == j0;
  real* g = gram + static_cast<std::size_t>(i0) * k + static_cast<std::size_t>(j0);
  real acc[NI][NJ] = {};
  for (int r = 0; r < NI; ++r) {
    for (int c = diag ? r : 0; c < NJ; ++c) {
      acc[r][c] = g[static_cast<std::size_t>(r) * k + c];
    }
  }
  // -O2 does not fully unroll these loops by itself; unrolled, the tile
  // stays in registers (one SSE vector per tile row) instead of on the stack.
  for (std::size_t p = p0; p < p1; ++p) {
    const real* yi = row(p) + i0;
    const real* yj = row(p) + j0;
#pragma GCC unroll 4
    for (int r = 0; r < NI; ++r) {
#pragma GCC unroll 4
      for (int c = 0; c < NJ; ++c) acc[r][c] += yi[r] * yj[c];
    }
  }
  for (int r = 0; r < NI; ++r) {
    for (int c = diag ? r : 0; c < NJ; ++c) {
      g[static_cast<std::size_t>(r) * k + c] = acc[r][c];
    }
  }
}

/// rhs[i0, i0+NI) += Σ_p w_p y_p[i0, i0+NI) over rows [p0, p1), in locals.
template <int NI, class Rows>
void rhs_tile(const Rows& row, std::size_t p0, std::size_t p1, int i0,
              const real* weights, real* rhs) {
  real acc[NI] = {};
  for (int r = 0; r < NI; ++r) acc[r] = rhs[i0 + r];
  for (std::size_t p = p0; p < p1; ++p) {
    const real* yi = row(p) + i0;
    const real w = weights[p];
#pragma GCC unroll 4
    for (int r = 0; r < NI; ++r) acc[r] += w * yi[r];
  }
  for (int r = 0; r < NI; ++r) rhs[i0 + r] = acc[r];
}

/// Only the last tile row and column are partial, so ni < 4 implies nj == ni.
template <class Rows>
void tile(const Rows& row, std::size_t p0, std::size_t p1, int i0, int j0,
          int ni, int nj, std::size_t k, real* gram) {
  switch (nj) {
    case 4:
      return gram_tile<4, 4>(row, p0, p1, i0, j0, k, gram);
    case 3:
      return ni == 4 ? gram_tile<4, 3>(row, p0, p1, i0, j0, k, gram)
                     : gram_tile<3, 3>(row, p0, p1, i0, j0, k, gram);
    case 2:
      return ni == 4 ? gram_tile<4, 2>(row, p0, p1, i0, j0, k, gram)
                     : gram_tile<2, 2>(row, p0, p1, i0, j0, k, gram);
    default:
      return ni == 4 ? gram_tile<4, 1>(row, p0, p1, i0, j0, k, gram)
                     : gram_tile<1, 1>(row, p0, p1, i0, j0, k, gram);
  }
}

template <class Rows>
void accumulate(const Rows& row, std::size_t n, const real* weights, int k,
                real* gram, real* rhs) {
  const auto ku = static_cast<std::size_t>(k);
  for (std::size_t p0 = 0; p0 < n; p0 += kGramBlockRows) {
    const std::size_t p1 = std::min(n, p0 + kGramBlockRows);
    for (int i0 = 0; i0 < k; i0 += kTile) {
      const int ni = std::min(kTile, k - i0);
      for (int j0 = i0; j0 < k; j0 += kTile) {
        tile(row, p0, p1, i0, j0, ni, std::min(kTile, k - j0), ku, gram);
      }
      if (rhs == nullptr) continue;
      switch (ni) {
        case 4: rhs_tile<4>(row, p0, p1, i0, weights, rhs); break;
        case 3: rhs_tile<3>(row, p0, p1, i0, weights, rhs); break;
        case 2: rhs_tile<2>(row, p0, p1, i0, weights, rhs); break;
        default: rhs_tile<1>(row, p0, p1, i0, weights, rhs); break;
      }
    }
  }
}

}  // namespace

void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     int k, real* gram, real* rhs) {
  accumulate(GatheredRows{rows.data()}, rows.size(), weights, k, gram, rhs);
}

void accumulate_gram(const real* rows, std::size_t n, const real* weights,
                     int k, real* gram, real* rhs) {
  accumulate(ContiguousRows{rows, static_cast<std::size_t>(k)}, n, weights, k,
             gram, rhs);
}

void finalize_gram(real lambda, int k, real* gram) {
  const auto ku = static_cast<std::size_t>(k);
  for (std::size_t i = 0; i < ku; ++i) {
    gram[i * ku + i] += lambda;
    for (std::size_t j = i + 1; j < ku; ++j) gram[j * ku + i] = gram[i * ku + j];
  }
}

void gram_full(const Matrix& a, real lambda, real* out) {
  const auto k = static_cast<int>(a.cols());
  std::fill(out, out + static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
            real{0});
  accumulate_gram(a.data(), static_cast<std::size_t>(a.rows()), nullptr, k, out,
                  nullptr);
  finalize_gram(lambda, k, out);
}

void atx(const Matrix& a, std::span<const real> x, real* out) {
  const index_t n = a.rows();
  const index_t k = a.cols();
  ALSMF_CHECK(static_cast<index_t>(x.size()) == n);
  std::fill(out, out + k, real{0});
  for (index_t r = 0; r < n; ++r) {
    auto row = a.row(r);
    const real xr = x[static_cast<std::size_t>(r)];
    for (index_t j = 0; j < k; ++j) out[j] += xr * row[static_cast<std::size_t>(j)];
  }
}

}  // namespace alsmf
