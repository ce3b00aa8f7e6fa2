#include "als/row_solver.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "robust/fault_injection.hpp"

namespace alsmf {

namespace {

/// Mirrors solve_normal_equations' injected-fault behavior so every
/// strategy feeds the divergence guard the same way: NaN factors that the
/// post-update sweep must catch and repair.
bool inject_solve_fault(real* svec, int k) {
  if (!robust::fault_at(robust::FaultSite::kSolve)) return false;
  std::fill(svec, svec + k, std::numeric_limits<real>::quiet_NaN());
  return true;
}

class CholeskyRowSolver final : public RowSolver {
 public:
  explicit CholeskyRowSolver(LinearSolverKind linear) : linear_(linear) {}

  RowSolverKind kind() const override { return RowSolverKind::kCholesky; }

  bool solve(real* smat, real* svec, int k, const real* /*warm*/,
             real* /*scratch*/) const override {
    // Delegating keeps the exact strategy bit-identical to the
    // pre-strategy code path (including fault injection and the zero-fill
    // fallback).
    return solve_normal_equations(smat, svec, k, linear_);
  }

  bool uses_warm_start() const override { return false; }
  std::size_t scratch_reals(int /*k*/) const override { return 0; }

  double modeled_flops(int k) const override {
    return linear_ == LinearSolverKind::kCholesky ? cholesky_solve_flops(k)
                                                  : lu_solve_flops(k);
  }

 private:
  LinearSolverKind linear_;
};

/// iALS++-style block coordinate sweep: one pass over ⌈k/d⌉ coordinate
/// blocks, each solved exactly against the residual right-hand side with
/// the other coordinates frozen at their current value (block
/// Gauss-Seidel, convergent for SPD systems). With d = k the sweep is a
/// single exact solve.
class SubspaceRowSolver final : public RowSolver {
 public:
  explicit SubspaceRowSolver(int block) : d_(block) { ALSMF_CHECK(block > 0); }

  RowSolverKind kind() const override { return RowSolverKind::kSubspace; }

  bool solve(real* smat, real* svec, int k, const real* warm,
             real* scratch) const override {
    if (inject_solve_fault(svec, k)) return true;
    const int d = std::min(d_, k);
    real* x = scratch;                          // k
    real* bm = scratch + k;                     // d*d block system
    real* brhs = bm + static_cast<std::size_t>(d) * d;  // d block rhs
    if (warm) {
      std::copy(warm, warm + k, x);
    } else {
      std::fill(x, x + k, real{0});
    }
    for (int b0 = 0; b0 < k; b0 += d) {
      const int bs = std::min(d, k - b0);
      for (int i = 0; i < bs; ++i) {
        const real* arow =
            smat + static_cast<std::size_t>(b0 + i) * static_cast<std::size_t>(k);
        // rhs_B = b_B - A[B, ¬B]·x_¬B with the block's own columns excluded.
        real s = svec[b0 + i];
        for (int j = 0; j < k; ++j) {
          if (j < b0 || j >= b0 + bs) s -= arow[j] * x[j];
        }
        brhs[i] = s;
        for (int j = 0; j < bs; ++j) {
          bm[static_cast<std::size_t>(i) * d + j] = arow[b0 + j];
        }
      }
      if (!cholesky_solve_stride(bm, bs, d, brhs)) {
        // Principal submatrices of an SPD system are SPD, so this cannot
        // fire for λ > 0; mirror the exact strategy's zero-fill contract.
        std::fill(svec, svec + k, real{0});
        return false;
      }
      for (int i = 0; i < bs; ++i) x[b0 + i] = brhs[i];
    }
    std::copy(x, x + k, svec);
    return true;
  }

  bool uses_warm_start() const override { return true; }

  std::size_t scratch_reals(int k) const override {
    const auto d = static_cast<std::size_t>(std::min(d_, k));
    return static_cast<std::size_t>(k) + d * d + d;
  }

  double modeled_flops(int k) const override {
    return subspace_solve_flops(k, std::min(d_, k));
  }

 private:
  /// Cholesky solve of the bs×bs leading block of a d-strided buffer.
  static bool cholesky_solve_stride(real* a, int bs, int d, real* b) {
    if (bs == d) return cholesky_solve(a, bs, b);
    // Compact the block to bs-stride in place (rows move down, never up,
    // so the copy is safe front-to-back).
    for (int i = 1; i < bs; ++i) {
      std::memmove(a + static_cast<std::size_t>(i) * bs,
                   a + static_cast<std::size_t>(i) * d,
                   static_cast<std::size_t>(bs) * sizeof(real));
    }
    return cholesky_solve(a, bs, b);
  }

  int d_;
};

}  // namespace

double subspace_solve_flops(int k, int d) {
  double total = 0;
  for (int b0 = 0; b0 < k; b0 += d) {
    const int bs = std::min(d, k - b0);
    // Residual rhs against the frozen coordinates + the exact block solve.
    total += 2.0 * bs * (k - bs) + cholesky_solve_flops(bs);
  }
  return total;
}

std::unique_ptr<RowSolver> make_row_solver(const AlsOptions& options) {
  switch (options.row_solver) {
    case RowSolverKind::kCholesky:
      return std::make_unique<CholeskyRowSolver>(options.solver);
    case RowSolverKind::kSubspace:
      return std::make_unique<SubspaceRowSolver>(
          options.effective_subspace_block());
  }
  throw Error("unknown RowSolverKind");
}

}  // namespace alsmf
