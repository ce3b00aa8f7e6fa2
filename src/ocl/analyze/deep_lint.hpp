// Deep lint: the one lint of the generated OpenCL C sources, over the parsed
// translation unit and the lowered access IR. There is no OpenCL runtime to
// compile the kernels, so it catches the generator bugs that would break a
// real build or run:
//  * on the translation unit: exactly one __kernel, no barrier() in a helper
//    function, no local fence in a kernel without __local memory, no tabs;
//  * on each kernel's IR: barriers only some lanes reach, uncoalesced
//    stores in hot loops, scratch-pad overflow, a work-group narrower than
//    the guarded reduction, staged tiles read before the synchronizing
//    barrier, dead kernel arguments.
// Text the parser or the lowering cannot classify (unbalanced delimiters
// included) fails closed as "deep: unanalyzable kernel source".
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ocl/analyze/ast.hpp"
#include "ocl/analyze/ir.hpp"

namespace alsmf::ocl::analyze {

struct LintIssue {
  int line = 0;
  std::string message;
  /// 1-based column when the diagnostic is anchored on a reference; 0 when
  /// only the line is known.
  int col = 0;
};

struct LintReport {
  std::vector<LintIssue> issues;
  bool clean() const { return issues.empty(); }
  std::string to_string() const;
};

struct DeepLintOptions {
  /// Per-work-group scratch-pad capacity to prove __local fits (0 = skip).
  std::size_t local_capacity_bytes = 0;
};

/// Parses and lowers the source, then lints it. A ParseError becomes a
/// diagnostic itself: an unanalyzable kernel must fail the gate, not pass
/// silently.
LintReport deep_lint_source(const std::string& source,
                            const DeepLintOptions& options = {});

/// The same diagnostics for a caller that already parsed `source` to `tu`
/// and lowered it to `kernels` (lower_kernels(tu)).
LintReport deep_lint_ir(const std::string& source, const TranslationUnit& tu,
                        const std::vector<KernelIR>& kernels,
                        const DeepLintOptions& options = {});

}  // namespace alsmf::ocl::analyze
