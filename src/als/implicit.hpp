// Implicit-feedback ALS (Hu, Koren & Volinsky, ICDM'08 — the paper's [1]).
//
// The paper motivates ALS over SGD partly because it "can incorporate
// implicit ratings". This module implements that solver: observations are
// preferences p_ui = 1 with confidence c_ui = 1 + alpha * r_ui, and each
// row solves
//     (YᵀY + Yᵀ(Cᵘ - I)Y + λI) x_u = Yᵀ Cᵘ p_u ,
// where the dense Gram matrix YᵀY + λI is computed once per half-iteration
// and only the Ω_u-restricted correction is per-row — the trick that makes
// implicit ALS tractable.
//
// The half-updates run the explicit thread-batched kernel (kernels.hpp)
// with the Gramian as its prefix, as iALS++ (Rendle et al.) and ALX (Mehta
// et al.) solve implicit ALS: the host computes G once per half-update
// (O(n·k²), dwarfed by the per-row work), every work-group reads it, and
// the kernel's S1–S3 formulas price the rows like explicit ones plus that
// broadcast.
#pragma once

#include <vector>

#include "als/options.hpp"
#include "devsim/device.hpp"
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

/// Trains implicit-feedback factors on the interaction matrix (values are
/// interaction strengths, e.g. counts) on one device.
class DeviceImplicitAls {
 public:
  DeviceImplicitAls(const Csr& interactions, const ImplicitOptions& options,
                    devsim::Device& device);

  void run_iteration();
  double run();  ///< all iterations; returns modeled seconds consumed

  const Matrix& x() const { return x_; }
  const Matrix& y() const { return y_; }
  double modeled_seconds() const;

  /// Launch shape (the paper's defaults).
  std::size_t num_groups = 8192;
  int group_size = 32;
  bool functional = true;
  /// Checked execution (shadow-memory analysis); requires functional.
  bool validate = false;

 private:
  void half_update(const Csr& conf, const Matrix& src, Matrix& dst,
                   const char* name);

  ImplicitOptions options_;
  /// The interactions with each value r replaced by its confidence
  /// 1 + alpha·r (rounded once, here), and the transpose of that.
  Csr conf_, conf_t_;
  devsim::Device& device_;
  Matrix x_, y_;
  std::vector<real> gram_;  ///< the current half-update's Gramian prefix
};

/// The implicit-ALS objective: Σ_ui c_ui (p_ui - x_uᵀy_i)² + λ(|X|²+|Y|²),
/// with the sum running over ALL user-item cells (unobserved cells have
/// c = 1, p = 0). O(|Ω|·k + (m+n)·k²) via the Gram trick.
double implicit_loss(const Csr& r, const Matrix& x, const Matrix& y,
                     const ImplicitOptions& options);

}  // namespace alsmf
