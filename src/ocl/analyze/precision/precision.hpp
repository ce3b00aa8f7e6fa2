// Static precision analyzer: abstract interpretation of a generated kernel
// over the interval × error domain (domain.hpp), certifying its
// mixed-precision safety before any device runs it.
//
// The walk follows the kernel AST statement by statement with one
// abstraction per scalar, per private/local array (element-summarized), and
// per global buffer. Loop bodies are visited once; `acc += e` inside a loop
// nest is closed-formed with the nest's symbolic trip product resolved
// through the access IR's loop table (kNnz trips become the assumed
// nnz-per-row ceiling, chunked staging becomes ⌈ω_max/T⌉ × T, fixed K
// loops their exact counts), so error growth through the dot-product
// reductions is priced at the worst row the certificate covers.
//
// The k×k solve is handled by an analytic contract instead of interval-
// following the factorization (whose division chains have no useful
// interval bound): ridge regularization keeps the normal equations SPD
// with λ ≥ λ_min, so ‖x‖₂ ≤ R·sqrt(ω_max/λ_min) (from λ‖x‖² ≤ ‖r‖²),
// and the solution error is the standard perturbation bound
//   err_x ≤ (k·err_A·B_x + err_b)/λ_min + k²·u·(|A|·B_x + |b|)/λ_min
// applied at the lane-0 `*_solve_inplace` call (batched kernels) or at the
// inline factorization section (the flat kernel, delimited from the first
// sqrt statement to the output store loop).
//
// Certification gates (the CLI exits nonzero on any):
//   * overflow-possible — an exact-value interval crosses the finite
//     ceiling of a narrow format at any quantization point (narrow loads,
//     narrow-typed accumulators, the output store);
//   * nan-possible / unbounded error at the certified output store.
// Subnormal flush-to-zero points are reported but informational (the
// quantization error term already charges a full min_normal for them).
#pragma once

#include <string>
#include <vector>

#include "ocl/analyze/ast.hpp"
#include "ocl/analyze/ir.hpp"
#include "ocl/analyze/precision/domain.hpp"

namespace alsmf::ocl::analyze::precision {

/// The operating envelope a certificate is issued under. These are claims
/// about the data the kernel may be launched on, echoed into the report;
/// launching outside them voids the certificate.
struct PrecisionAssumptions {
  double omega_max = 4096;    ///< max nonzeros per row
  double rating_bound = 5;    ///< |values[i]| ceiling (R)
  double factor_bound = 4;    ///< |X|, |Y| entry ceiling (F)
  double lambda_min = 1.0;    ///< ridge term floor
  double lambda_max = 10.0;   ///< ridge term ceiling
};

struct PrecisionFinding {
  enum class Kind {
    kOverflowPossible,  // gated: interval crosses a finite ceiling
    kNanPossible,       // gated at the output store, informational elsewhere
    kUnboundedError,    // gated: the error bound diverged (poisoned div)
    kSubnormalFlush,    // informational: FTZ can zero a live value
  };
  Kind kind = Kind::kOverflowPossible;
  int line = 0;
  std::string what;     ///< the variable / buffer involved
  double lo = 0, hi = 0, err = 0;
  std::string message;
};

/// Whether a finding kind fails certification.
bool gates_certification(PrecisionFinding::Kind kind);

struct PrecisionReport {
  std::string kernel;
  std::string storage = "fp32";   ///< storage format of the factor buffers
  bool certified = false;         ///< no gated findings
  bool solve_contract_applied = false;
  AVal output;              ///< join of all stores to the output buffer
  std::string output_buffer;
  double output_ceiling = 0;  ///< finite max of the output storage format
  int subnormal_flush_points = 0;
  std::vector<PrecisionFinding> findings;
  PrecisionAssumptions assumptions;
};

/// Analyzes one lowered kernel. `ir` must be the lowering of the kernel
/// named `ir.name` inside `tu` (for the loop table); throws ParseError if
/// the function is missing.
PrecisionReport analyze_kernel_precision(const TranslationUnit& tu,
                                         const KernelIR& ir,
                                         const PrecisionAssumptions& as);

/// Parses + lowers `source` and analyzes every __kernel in it.
std::vector<PrecisionReport> analyze_source_precision(
    const std::string& source, const PrecisionAssumptions& as);

const char* to_string(PrecisionFinding::Kind kind);
std::string to_json(const PrecisionReport& report);

}  // namespace alsmf::ocl::analyze::precision
