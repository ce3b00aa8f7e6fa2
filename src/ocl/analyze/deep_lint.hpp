// Deep lint: parser- and IR-backed diagnostics layered on the structural
// lint (ocl/kernel_lint.hpp). Where the structural lint works on tokens,
// these checks work on the lowered access IR, so they can prove properties
// per work-group size and memory space: uncoalesced stores in hot loops,
// scratch-pad overflow, lane coverage of the guarded reduction, staged
// tiles read before the synchronizing barrier, dead kernel arguments.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ocl/analyze/ir.hpp"
#include "ocl/kernel_lint.hpp"

namespace alsmf::ocl::analyze {

struct DeepLintOptions {
  /// Kernel entry points the structural lint should expect.
  int expected_kernels = 1;
  /// Per-work-group scratch-pad capacity to prove __local fits (0 = skip).
  std::size_t local_capacity_bytes = 0;
  /// Limits forwarded to the structural lint (0 fields skip, as there).
  LintLimits limits;
};

/// Runs the structural lint, then parses and lowers the source and appends
/// the IR-backed diagnostics. A ParseError becomes a diagnostic itself: an
/// unanalyzable kernel must fail the gate, not pass silently.
LintReport deep_lint_kernel_source(const std::string& source,
                                   const DeepLintOptions& options = {});

/// The same diagnostics for a caller that already lowered `source` to
/// `kernels` (lower_kernels(parse_translation_unit(source))).
LintReport deep_lint_kernel_ir(const std::string& source,
                               const std::vector<KernelIR>& kernels,
                               const DeepLintOptions& options = {});

}  // namespace alsmf::ocl::analyze
