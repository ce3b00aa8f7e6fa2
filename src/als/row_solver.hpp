// Pluggable row-solver strategies for step S3 (docs/solvers.md).
//
// Every ALS half-update assembles the same k×k normal equations
//   (Σ y_i y_iᵀ + λI) x_u = Σ r_ui y_i
// per row; the strategies differ in how the system is solved:
//
//  * cholesky — exact factorization (the paper's S3, bit-identical to the
//               pre-strategy code path).
//  * subspace — iALS++-style block coordinate sweep: ⌈k/d⌉ exact d×d
//               solves per row, warm-started from the row's previous
//               factor value.
//
// The strategy objects are stateless and shared across work-groups; any
// per-solve scratch is caller-provided (scratch_reals), so concurrent
// group execution never races.
#pragma once

#include <cstddef>
#include <memory>

#include "als/options.hpp"

namespace alsmf {

/// Strategy interface for the per-row S3 solve.
class RowSolver {
 public:
  virtual ~RowSolver() = default;

  virtual RowSolverKind kind() const = 0;

  /// Solves smat·x = svec in place (svec becomes x_u). `warm` seeds the
  /// iterative strategy with the row's previous factor value (nullptr =
  /// zero start); the exact solve ignores it. `scratch` must hold at least
  /// scratch_reals(k) reals. Returns false when the solve failed and svec
  /// was zero-filled.
  virtual bool solve(real* smat, real* svec, int k, const real* warm,
                     real* scratch) const = 0;

  /// Whether solve() reads `warm` — prices the extra factor-row fetch and
  /// decides if the kernel must read dst before overwriting it.
  virtual bool uses_warm_start() const = 0;

  /// Scratch reals one solve needs (0 for the exact strategy).
  virtual std::size_t scratch_reals(int k) const = 0;

  /// Modeled flop count of one row solve. S3 pricing: the devsim cost
  /// model and the static kernel profiles both charge this.
  virtual double modeled_flops(int k) const = 0;
};

/// Builds the strategy selected by `options` (row_solver, solver,
/// subspace_block).
std::unique_ptr<RowSolver> make_row_solver(const AlsOptions& options);

/// Flop model of one subspace sweep over all ⌈k/d⌉ blocks (per-block d×d
/// Cholesky plus the cross-block right-hand-side corrections).
double subspace_solve_flops(int k, int d);

}  // namespace alsmf
