#include "als/implicit.hpp"

#include <vector>

#include "als/reference.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/vecops.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {

/// One implicit half-update: recompute every row of dst from src.
void implicit_half_update(const Csr& r, const Matrix& src, Matrix& dst,
                          const ImplicitOptions& options, ThreadPool& pool) {
  const int k = options.k;
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);

  // Gram matrix G = srcᵀ·src + λI once per half-iteration.
  std::vector<real> gram(kk);
  gram_full(src, options.lambda, gram.data());

  pool.parallel_for(
      0, static_cast<std::size_t>(r.rows()),
      [&](std::size_t b, std::size_t e, unsigned) {
        std::vector<real> a(kk);
        for (std::size_t u = b; u < e; ++u) {
          const auto row = static_cast<index_t>(u);
          implicit_solve_row(gram.data(), r.row_cols(row), r.row_values(row),
                             src, options.alpha, k, a.data(),
                             dst.row(row).data());
        }
      });
}

}  // namespace

void validate(const ImplicitOptions& options) {
  validate(static_cast<const FactorOptionsBase&>(options));
  if (options.alpha < 0.0f) {
    throw Error("invalid alpha = " + std::to_string(options.alpha) +
                "; the confidence slope must be >= 0 (c = 1 + alpha * r)");
  }
}

void implicit_solve_row(const real* gram, std::span<const index_t> cols,
                        std::span<const real> vals, const Matrix& src,
                        real alpha, int k, real* a, real* x) {
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  std::copy(gram, gram + kk, a);
  std::fill(x, x + k, real{0});
  for (std::size_t p = 0; p < cols.size(); ++p) {
    const real conf = real{1} + alpha * vals[p];
    auto yrow = src.row(cols[p]);
    // A += (c-1)·y yᵀ ; x += c·y   (p_ui = 1)
    for (int i = 0; i < k; ++i) {
      const real ci = (conf - real{1}) * yrow[static_cast<std::size_t>(i)];
      real* arow = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
      for (int j = 0; j < k; ++j) {
        arow[j] += ci * yrow[static_cast<std::size_t>(j)];
      }
      x[i] += conf * yrow[static_cast<std::size_t>(i)];
    }
  }
  if (!cholesky_solve(a, k, x)) std::fill(x, x + k, real{0});
}

ImplicitResult implicit_als(const Csr& r, const ImplicitOptions& options,
                            ThreadPool* pool) {
  validate(options);
  if (!pool) pool = &ThreadPool::global();

  ImplicitResult result;
  init_factors(r.rows(), r.cols(), options, result.x, result.y);

  const Csr rt = transpose(r);
  for (int it = 0; it < options.iterations; ++it) {
    implicit_half_update(r, result.y, result.x, options, *pool);
    implicit_half_update(rt, result.x, result.y, options, *pool);
  }
  return result;
}

double implicit_loss(const Csr& r, const Matrix& x, const Matrix& y,
                     const ImplicitOptions& options) {
  ALSMF_CHECK(x.rows() == r.rows() && y.rows() == r.cols());
  const int k = options.k;
  ALSMF_CHECK(x.cols() == k && y.cols() == k);
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);

  // Unobserved part: Σ_all ŷ² = Σ_u x_uᵀ (YᵀY) x_u via the Gram trick.
  std::vector<real> gram(kk);
  gram_full(y, real{0}, gram.data());
  double total = 0;
  std::vector<real> gx(static_cast<std::size_t>(k));
  for (index_t u = 0; u < x.rows(); ++u) {
    auto xu = x.row(u);
    for (int i = 0; i < k; ++i) {
      real s = 0;
      const real* grow = gram.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
      for (int j = 0; j < k; ++j) s += grow[j] * xu[static_cast<std::size_t>(j)];
      gx[static_cast<std::size_t>(i)] = s;
    }
    total += static_cast<double>(vdot(xu.data(), gx.data(), static_cast<std::size_t>(k)));
  }

  // Observed corrections: c(1-ŷ)² - ŷ² per stored entry.
  for (index_t u = 0; u < r.rows(); ++u) {
    auto cols = r.row_cols(u);
    auto vals = r.row_values(u);
    auto xu = x.row(u);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const double pred = vdot(xu.data(), y.row(cols[p]).data(),
                               static_cast<std::size_t>(k));
      const double conf = 1.0 + static_cast<double>(options.alpha) * vals[p];
      total += conf * (1.0 - pred) * (1.0 - pred) - pred * pred;
    }
  }

  return total + static_cast<double>(options.lambda) * (x.frob2() + y.frob2());
}

}  // namespace alsmf
