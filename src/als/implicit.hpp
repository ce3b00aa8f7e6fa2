// Implicit-feedback ALS (Hu, Koren & Volinsky, ICDM'08 — the paper's [1]).
//
// The paper motivates ALS over SGD partly because it "can incorporate
// implicit ratings". This module implements that solver: observations are
// preferences p_ui = 1 with confidence c_ui = 1 + alpha * r_ui, and each
// row solves
//     (YᵀY + Yᵀ(Cᵘ - I)Y + λI) x_u = Yᵀ Cᵘ p_u ,
// where the dense Gram matrix YᵀY is computed once per half-iteration and
// only the Ω_u-restricted correction is per-row — the trick that makes
// implicit ALS tractable.
#pragma once

#include <cstdint>
#include <span>

#include "als/options.hpp"
#include "common/thread_pool.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

/// Shares k/lambda/iterations/seed with the explicit-ALS family via
/// FactorOptionsBase; only the confidence slope is implicit-specific.
struct ImplicitOptions : FactorOptionsBase {
  /// Confidence slope: c = 1 + alpha * r (40 in the original paper's runs;
  /// smaller for already-bounded rating-like counts).
  real alpha = 40.0f;

  ImplicitOptions() { iterations = 10; }
};

/// Shared-base validation plus the confidence slope.
void validate(const ImplicitOptions& options);

struct ImplicitResult {
  Matrix x;  ///< m × k user factors
  Matrix y;  ///< n × k item factors
};

/// Trains implicit-feedback factors on the interaction matrix `r` (values
/// are interpreted as interaction strengths, e.g. counts). Parallel over
/// rows via the pool.
ImplicitResult implicit_als(const Csr& r, const ImplicitOptions& options,
                            ThreadPool* pool = nullptr);

/// Solves one row of the implicit half-update into x (k values):
///     (G + Σ_p (c_p − 1)·y_p y_pᵀ) x = Σ_p c_p·y_p ,  c_p = 1 + alpha·v_p ,
/// where `gram` is G = srcᵀsrc + λI (k×k, row-major) and y_p are the rows
/// `cols` of `src` with values `vals`. `a` is k×k scratch. A system that
/// fails to factor yields x = 0. Shared by implicit_als and
/// DeviceImplicitAls, so both produce the same bits.
void implicit_solve_row(const real* gram, std::span<const index_t> cols,
                        std::span<const real> vals, const Matrix& src,
                        real alpha, int k, real* a, real* x);

/// The implicit-ALS objective: Σ_ui c_ui (p_ui - x_uᵀy_i)² + λ(|X|²+|Y|²),
/// with the sum running over ALL user-item cells (unobserved cells have
/// c = 1, p = 0). O(|Ω|·k + (m+n)·k²) via the Gram trick.
double implicit_loss(const Csr& r, const Matrix& x, const Matrix& y,
                     const ImplicitOptions& options);

}  // namespace alsmf
