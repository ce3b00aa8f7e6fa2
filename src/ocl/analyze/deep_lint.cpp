#include "ocl/analyze/deep_lint.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "ocl/analyze/ir.hpp"
#include "ocl/analyze/parser.hpp"

namespace alsmf::ocl::analyze {

namespace {

std::size_t align_up(std::size_t bytes) { return (bytes + 63) / 64 * 64; }

bool freq_hot(const Freq& f) { return f.per_nnz > 0 || f.chunk_body > 0; }

void check_kernel(const KernelIR& ir, const DeepLintOptions& options,
                  LintReport& report) {
  const auto add = [&](int line, std::string message, int col = 0) {
    report.issues.push_back(
        {line, "deep: " + ir.name + ": " + std::move(message), col});
  };

  // Uncoalesced global store in a hot loop: every nonzero pays a scattered
  // transaction on GPUs. (Row-granular stores outside the nnz loops are the
  // expected S3 result write and stay exempt.)
  for (const auto& r : ir.refs) {
    if (!r.is_store || !r.hot || r.zero_weight) continue;
    if (r.space != MemSpace::kGlobal) continue;
    if (r.coalescing == Coalescing::kStrided ||
        r.coalescing == Coalescing::kGathered) {
      add(r.line, "uncoalesced " +
                      std::string(r.coalescing == Coalescing::kStrided
                                      ? "strided"
                                      : "gathered") +
                      " global store to '" + r.buffer +
                      "' in a hot loop (index " + r.index + ")",
          r.col);
    }
  }

  // Provable scratch-pad overflow for the declared extents.
  if (options.local_capacity_bytes > 0) {
    std::size_t declared = 0;
    for (const auto& d : ir.locals) {
      if (d.elems < 0) {
        add(d.line, "__local '" + d.name +
                        "' has a statically unsizable extent; cannot prove "
                        "it fits the scratch-pad");
        continue;
      }
      declared += align_up(static_cast<std::size_t>(d.elems) *
                           static_cast<std::size_t>(d.elem_bytes));
    }
    if (declared > options.local_capacity_bytes) {
      add(ir.locals.empty() ? 0 : ir.locals.front().line,
          "__local declarations need " + std::to_string(declared) +
              " bytes (64-byte aligned), exceeding the " +
              std::to_string(options.local_capacity_bytes) +
              "-byte per-group capacity");
    }
  }

  // The guarded-lane reduction writes row lx of the system matrix only for
  // lx < K; a work-group narrower than K silently drops rows.
  if (ir.ws > 0 && ir.k > 0 && ir.ws < ir.k) {
    add(0, "WS=" + std::to_string(ir.ws) + " is smaller than K=" +
               std::to_string(ir.k) +
               "; the (lx < K) guarded reduction leaves accumulator rows "
               "unwritten");
  }

  // Staged tiles must be synchronized before the first hot read: the
  // cooperative fill and the consuming loop partition work differently, so
  // without an intervening barrier lanes read other lanes' stale elements.
  std::set<std::string> staged;
  for (const auto& t : ir.traffic) {
    if (t.kind == TrafficIR::Kind::kLocalWrite && t.lane_partitioned &&
        freq_hot(t.freq)) {
      staged.insert(t.buffer);
    }
  }
  for (const auto& buf : staged) {
    int last_write = 0;
    int first_read = std::numeric_limits<int>::max();
    bool write_in_chunk = false;
    for (const auto& t : ir.traffic) {
      if (t.buffer != buf || !freq_hot(t.freq)) continue;
      if (t.kind == TrafficIR::Kind::kLocalWrite && t.lane_partitioned) {
        last_write = std::max(last_write, t.line);
        write_in_chunk |= t.freq.chunk_body > 0;
      } else if (t.kind == TrafficIR::Kind::kLocalRead ||
                 t.kind == TrafficIR::Kind::kLocalTraversal) {
        first_read = std::min(first_read, t.line);
      }
    }
    if (first_read == std::numeric_limits<int>::max()) continue;
    bool fenced = false;
    for (const auto& b : ir.barriers) {
      // A fill inside the chunk loop needs a per-chunk barrier; a per-row
      // fill is fenced by any barrier between the two loops.
      if (write_in_chunk && b.freq.per_chunk == 0) continue;
      if (b.line > last_write && b.line < first_read) {
        fenced = true;
        break;
      }
    }
    if (!fenced) {
      add(first_read, "staged tile '" + buf +
                          "' is read (line " + std::to_string(first_read) +
                          ") without a barrier after its cooperative fill "
                          "(line " + std::to_string(last_write) + ")");
    }
  }

  // Dead kernel arguments are generator bugs: either the argument should
  // not be bound, or the kernel silently ignores an input.
  for (const auto& a : ir.args) {
    if (!a.used) add(a.line, "kernel argument '" + a.name + "' is never used");
  }
}

}  // namespace

LintReport deep_lint_kernel_ir(const std::string& source,
                               const std::vector<KernelIR>& kernels,
                               const DeepLintOptions& options) {
  LintReport report =
      lint_kernel_source(source, options.expected_kernels, options.limits);
  for (const auto& ir : kernels) check_kernel(ir, options, report);
  return report;
}

LintReport deep_lint_kernel_source(const std::string& source,
                                   const DeepLintOptions& options) {
  try {
    return deep_lint_kernel_ir(
        source, lower_kernels(parse_translation_unit(source)), options);
  } catch (const ParseError& e) {
    LintReport report =
        lint_kernel_source(source, options.expected_kernels, options.limits);
    report.issues.push_back(
        {e.line, "deep: unanalyzable kernel source: " + e.message});
    return report;
  }
}

}  // namespace alsmf::ocl::analyze
