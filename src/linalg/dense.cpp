#include "linalg/dense.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/thread_pool.hpp"

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

/// Gathered rows whose Gram products carry one matrix weight m_p per row.
struct WeightedRows : GatheredRows {
  const real* m;
};

/// The column-side operand of a Gram product: y_p[j] as it stands...
template <class Rows>
real column(const Rows&, std::size_t, real yj) {
  return yj;
}

/// ...or scaled by the row's matrix weight first, m_p·y_p[j].
real column(const WeightedRows& rows, std::size_t p, real yj) {
  return rows.m[p] * yj;
}

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
      for (int c = 0; c < NJ; ++c) acc[r][c] += yi[r] * column(row, p, yj[c]);
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

/// accumulate() over matrix-weighted rows, with the rhs summed one row at a
/// time. Its own loop, because rhs_tile<WeightedRows> would compile to the
/// same code as rhs_tile<GatheredRows>, and GCC would fold the two into one
/// out-of-line function that the unweighted form no longer inlines.
void accumulate_weighted(const WeightedRows& row, std::size_t n,
                         const real* weights, int k, real* gram, real* rhs) {
  const auto ku = static_cast<std::size_t>(k);
  for (std::size_t p0 = 0; p0 < n; p0 += kGramBlockRows) {
    const std::size_t p1 = std::min(n, p0 + kGramBlockRows);
    for (int i0 = 0; i0 < k; i0 += kTile) {
      const int ni = std::min(kTile, k - i0);
      for (int j0 = i0; j0 < k; j0 += kTile) {
        tile(row, p0, p1, i0, j0, ni, std::min(kTile, k - j0), ku, gram);
      }
    }
  }
  if (rhs == nullptr) return;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < ku; ++i) rhs[i] += weights[p] * row(p)[i];
  }
}

/// Reals per vector of a ProductTable row. The sweeps below hold their sums
/// in GNU vectors of this many reals: SSE2 on x86-64, NEON on aarch64.
constexpr std::size_t kProductVector = 4;
using vreal = real __attribute__((vector_size(kProductVector * sizeof(real))));
/// Vector sums per register sweep of accumulate_products. With the
/// broadcast weight, a loaded row vector and its product they fit the 16
/// vector registers of either baseline without spilling.
constexpr std::size_t kSweepVectors = 9;

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

vreal load(const real* p) {
  vreal v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(real* p, vreal v) { std::memcpy(p, &v, sizeof v); }

/// One register sweep over the NP + NY vectors of a table row that start
/// at real `off`: NP product vectors, then NY vectors of the appended y.
/// Each sum is loaded from `acc` (laid out like a table row), adds rows
/// [0, n) in order, one add per product vector and one multiply and add
/// per w_p·y_p vector, and is stored back.
template <std::size_t NP, std::size_t NY>
void sweep(const real* const* rows, std::size_t n, const real* weights,
           std::size_t off, real* acc) {
  constexpr std::size_t kW = kProductVector;
  vreal s[NP + NY];
#pragma GCC unroll 9
  for (std::size_t v = 0; v < NP + NY; ++v) s[v] = load(acc + off + v * kW);
  for (std::size_t p = 0; p < n; ++p) {
    const real* t = rows[p] + off;
#pragma GCC unroll 9
    for (std::size_t v = 0; v < NP; ++v) s[v] += load(t + v * kW);
    if constexpr (NY > 0) {
      const vreal w = vreal{} + weights[p];
#pragma GCC unroll 9
      for (std::size_t v = NP; v < NP + NY; ++v) s[v] += w * load(t + v * kW);
    }
  }
#pragma GCC unroll 9
  for (std::size_t v = 0; v < NP + NY; ++v) store(acc + off + v * kW, s[v]);
}

using Sweep = void (*)(const real* const*, std::size_t, const real*,
                       std::size_t, real*);

template <std::size_t NP, std::size_t NY>
constexpr Sweep sweep_or_null() {
  if constexpr (NP + NY == 0 || NP + NY > kSweepVectors) {
    return nullptr;
  } else {
    return &sweep<NP, NY>;
  }
}

/// sweep<NP, NY> at index NP·(kSweepVectors + 1) + NY, for every split of
/// one to kSweepVectors vectors.
template <std::size_t... I>
constexpr auto make_sweeps(std::index_sequence<I...>) {
  constexpr std::size_t kSide = kSweepVectors + 1;
  return std::array<Sweep, sizeof...(I)>{
      sweep_or_null<I / kSide, I % kSide>()...};
}

constexpr auto kSweeps = make_sweeps(
    std::make_index_sequence<(kSweepVectors + 1) * (kSweepVectors + 1)>{});

}  // namespace

void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     int k, real* gram, real* rhs) {
  accumulate(GatheredRows{rows.data()}, rows.size(), weights, k, gram, rhs);
}

void accumulate_gram(std::span<const real* const> rows, const real* weights,
                     const real* gram_weights, int k, real* gram, real* rhs) {
  accumulate_weighted(WeightedRows{{rows.data()}, gram_weights}, rows.size(),
                      weights, k, gram, rhs);
}

void accumulate_gram(const real* rows, std::size_t n, const real* weights,
                     int k, real* gram, real* rhs) {
  accumulate(ContiguousRows{rows, static_cast<std::size_t>(k)}, n, weights, k,
             gram, rhs);
}

std::size_t ProductTable::products(int k) {
  const auto ku = static_cast<std::size_t>(k);
  return ku * (ku + 1) / 2;
}

std::size_t ProductTable::stride(int k) {
  return round_up(round_up(products(k), kProductVector) +
                      static_cast<std::size_t>(k),
                  kProductVector);
}

std::size_t ProductTable::bytes(int k, index_t rows) {
  return stride(k) * static_cast<std::size_t>(rows) * sizeof(real);
}

std::size_t ProductTable::y_offset() const {
  return round_up(products(k_), kProductVector);
}

void ProductTable::build(const Matrix& y) {
  k_ = static_cast<int>(y.cols());
  rows_ = y.rows();
  stride_ = stride(k_);
  const std::size_t n = stride_ * static_cast<std::size_t>(rows_);
  if (data_.size() < n) data_.resize(n);
  const auto ku = static_cast<std::size_t>(k_);
  const std::size_t yoff = y_offset();
  const std::size_t row_reals = stride_;
  ThreadPool::global().parallel_for(
      0, static_cast<std::size_t>(rows_),
      [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t s = b; s < e; ++s) {
          const real* ys = y.row(static_cast<index_t>(s)).data();
          real* t = data_.data() + s * row_reals;
          std::size_t at = 0;
          for (std::size_t i = 0; i < ku; ++i) {
            for (std::size_t j = i; j < ku; ++j) t[at++] = ys[i] * ys[j];
          }
          std::fill(t + at, t + yoff, real{0});
          std::copy(ys, ys + ku, t + yoff);
          std::fill(t + yoff + ku, t + row_reals, real{0});
        }
      });
}

void accumulate_products(std::span<const real* const> rows,
                         const real* weights, const ProductTable& table,
                         real* acc) {
  // The row's vectors, products first, split into the fewest sweeps of at
  // most kSweepVectors and balanced between them (17 at k = 10: 8, then 6
  // products and the 3 vectors of y).
  const std::size_t vectors = ProductTable::stride(table.k()) / kProductVector;
  const std::size_t product_vectors = table.y_offset() / kProductVector;
  const std::size_t sweeps = (vectors + kSweepVectors - 1) / kSweepVectors;
  for (std::size_t i = 0; i < sweeps; ++i) {
    const std::size_t begin = i * vectors / sweeps;
    const std::size_t end = (i + 1) * vectors / sweeps;
    const std::size_t np = std::clamp(product_vectors, begin, end) - begin;
    kSweeps[np * (kSweepVectors + 1) + (end - begin - np)](
        rows.data(), rows.size(), weights, begin * kProductVector, acc);
  }
}

void unpack_products(int k, real* gram) {
  // Each element moves to an index at least its packed one, so walking
  // backwards never overwrites a product before it has moved.
  const auto ku = static_cast<std::size_t>(k);
  std::size_t at = ProductTable::products(k);
  for (std::size_t i = ku; i-- > 0;) {
    for (std::size_t j = ku; j-- > i;) gram[i * ku + j] = gram[--at];
  }
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
