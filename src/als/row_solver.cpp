#include "als/row_solver.hpp"

#include <algorithm>
#include <cmath>
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

std::unique_ptr<RowSolver> make_exact_row_solver(LinearSolverKind linear) {
  return std::make_unique<CholeskyRowSolver>(linear);
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

AndersonMixer::AndersonMixer(std::size_t dim, int m) : dim_(dim), m_(m) {
  ALSMF_CHECK(m > 0);
  ALSMF_CHECK(dim > 0);
}

void AndersonMixer::reset() {
  has_prev_ = false;
  df_.clear();
  dg_.clear();
}

void AndersonMixer::mix(const real* z, real* g) {
  // f = G(z) - z, the fixed-point residual.
  std::vector<real> f(dim_);
  double fnorm_sq = 0;
  for (std::size_t i = 0; i < dim_; ++i) {
    f[i] = g[i] - z[i];
    fnorm_sq += static_cast<double>(f[i]) * static_cast<double>(f[i]);
  }

  // Safeguard: a residual that grew after a mixed step means the last
  // extrapolation left the basin the window was built in. Drop the
  // history and let this iteration be a plain (unmixed) restart.
  if (has_prev_ && !df_.empty() && fnorm_sq > prev_fnorm_sq_) {
    reset();
  }

  if (has_prev_) {
    std::vector<real> df(dim_), dg(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      df[i] = f[i] - prev_f_[i];
      dg[i] = g[i] - prev_g_[i];
    }
    df_.push_back(std::move(df));
    dg_.push_back(std::move(dg));
    if (df_.size() > static_cast<std::size_t>(m_)) {
      df_.erase(df_.begin());
      dg_.erase(dg_.begin());
    }
  }
  prev_f_ = f;
  prev_g_.assign(g, g + dim_);
  prev_fnorm_sq_ = fnorm_sq;
  has_prev_ = true;
  if (df_.empty()) return;  // first iterate: plain g

  // Type-II AA: γ = argmin ‖f − Σ γ_j Δf_j‖ via the (tiny) m×m normal
  // equations, lightly ridged against a collinear window.
  const auto m = static_cast<int>(df_.size());
  std::vector<double> nmat(static_cast<std::size_t>(m) * m);
  std::vector<double> rhs(static_cast<std::size_t>(m));
  const auto ddot = [&](const std::vector<real>& a, const std::vector<real>& b) {
    double s = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
      s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return s;
  };
  double diag_max = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = i; j < m; ++j) {
      const double v = ddot(df_[static_cast<std::size_t>(i)],
                            df_[static_cast<std::size_t>(j)]);
      nmat[static_cast<std::size_t>(i) * m + j] = v;
      nmat[static_cast<std::size_t>(j) * m + i] = v;
      if (i == j) diag_max = std::max(diag_max, v);
    }
    rhs[static_cast<std::size_t>(i)] = ddot(df_[static_cast<std::size_t>(i)], f);
  }
  if (!(diag_max > 0) || !std::isfinite(diag_max)) {
    reset();
    return;
  }
  const double ridge = 1e-10 * diag_max;
  for (int i = 0; i < m; ++i) nmat[static_cast<std::size_t>(i) * m + i] += ridge;

  // In-place Gaussian elimination with partial pivoting (m ≤ the window).
  std::vector<int> piv(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) piv[static_cast<std::size_t>(i)] = i;
  for (int c = 0; c < m; ++c) {
    int best = c;
    for (int r = c + 1; r < m; ++r) {
      if (std::fabs(nmat[static_cast<std::size_t>(r) * m + c]) >
          std::fabs(nmat[static_cast<std::size_t>(best) * m + c])) {
        best = r;
      }
    }
    if (best != c) {
      for (int j = 0; j < m; ++j) {
        std::swap(nmat[static_cast<std::size_t>(c) * m + j],
                  nmat[static_cast<std::size_t>(best) * m + j]);
      }
      std::swap(rhs[static_cast<std::size_t>(c)],
                rhs[static_cast<std::size_t>(best)]);
    }
    const double p = nmat[static_cast<std::size_t>(c) * m + c];
    if (!(std::fabs(p) > 0) || !std::isfinite(p)) {
      reset();
      return;
    }
    for (int r = c + 1; r < m; ++r) {
      const double factor = nmat[static_cast<std::size_t>(r) * m + c] / p;
      for (int j = c; j < m; ++j) {
        nmat[static_cast<std::size_t>(r) * m + j] -=
            factor * nmat[static_cast<std::size_t>(c) * m + j];
      }
      rhs[static_cast<std::size_t>(r)] -= factor * rhs[static_cast<std::size_t>(c)];
    }
  }
  std::vector<double> gamma(static_cast<std::size_t>(m));
  for (int i = m - 1; i >= 0; --i) {
    double s = rhs[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < m; ++j) {
      s -= nmat[static_cast<std::size_t>(i) * m + j] * gamma[static_cast<std::size_t>(j)];
    }
    gamma[static_cast<std::size_t>(i)] = s / nmat[static_cast<std::size_t>(i) * m + i];
  }
  double gamma_l1 = 0;
  for (double gv : gamma) {
    if (!std::isfinite(gv)) {
      reset();
      return;
    }
    gamma_l1 += std::fabs(gv);
  }
  // Safeguard: a near-collinear window produces huge mixing weights and a
  // wild extrapolation. Scale the step back into a trust region instead.
  constexpr double kGammaCap = 4.0;
  if (gamma_l1 > kGammaCap) {
    const double shrink = kGammaCap / gamma_l1;
    for (double& gv : gamma) gv *= shrink;
  }

  // z_next = g − Σ γ_j Δg_j (overwrites g; history already recorded the
  // unmixed image, as type II requires).
  for (int j = 0; j < m; ++j) {
    const real gj = static_cast<real>(gamma[static_cast<std::size_t>(j)]);
    const auto& dg = dg_[static_cast<std::size_t>(j)];
    for (std::size_t i = 0; i < dim_; ++i) g[i] -= gj * dg[i];
  }
}

}  // namespace alsmf
