// Numerical divergence guards for factor updates.
//
// After each ALS half-update the solver sweeps the freshly written factor
// block for non-finite entries (NaN/Inf from an ill-conditioned or injected
// solve). Each bad row is re-solved through a caller-supplied RowResolver
// with an escalating regularization multiplier; rows that never recover are
// zeroed (the cold-start representation) so one bad row cannot poison the
// next half-iteration. All guard activity is tallied in a RobustnessReport.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/dense.hpp"

namespace alsmf::robust {

/// Regularization multiplier per retry: attempt n (0-based) re-solves with
/// lambda scaled by kGuardLambdaEscalation^n — the first attempt repeats the
/// solve at the original damping, recovering transient failures exactly.
constexpr real kGuardLambdaEscalation = 10.0f;
/// Re-solve attempts per bad row before zeroing it.
constexpr int kGuardMaxAttempts = 3;

struct RobustnessReport {
  std::uint64_t guard_sweeps = 0;     ///< factor blocks swept
  std::uint64_t nonfinite_rows = 0;   ///< rows caught with NaN/Inf entries
  std::uint64_t redamped_rows = 0;    ///< rows recovered by lambda escalation
  std::uint64_t zeroed_rows = 0;      ///< rows zeroed after all retries failed
  std::uint64_t solver_fallbacks = 0; ///< Cholesky→LU fallbacks during retries
  std::uint64_t kernel_relaunches = 0;///< kernel launches retried after faults

  void merge(const RobustnessReport& other);
  std::string to_json() const;
};

/// Re-solves one row with `lambda_scale` times the base regularization,
/// writing k values to `out`. Returns false when the solve itself failed
/// (e.g. non-SPD system even under LU); the guard then escalates further or
/// zeroes the row. Implementations may bump `report.solver_fallbacks`.
using RowResolver =
    std::function<bool(index_t row, real lambda_scale, real* out)>;

/// Returns the indices of rows in [0, factor.rows()) containing a
/// non-finite entry.
std::vector<index_t> nonfinite_rows(const Matrix& factor);

/// Sweeps `factor` and repairs non-finite rows via `resolve`, escalating
/// regularization by kGuardLambdaEscalation over at most kGuardMaxAttempts
/// attempts per row. Returns the number of rows touched.
std::size_t guard_rows(Matrix& factor, const RowResolver& resolve,
                       RobustnessReport& report);

}  // namespace alsmf::robust
