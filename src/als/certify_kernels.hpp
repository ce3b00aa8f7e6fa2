// The kernel certificate (`alsmf_cli certify-kernels`): the one CI gate that
// every ALS kernel is correct on every device profile, in both of its
// implementations.
//
// Generated OpenCL sources (ocl/kernel_flavors.hpp, 33 flavors) are
// certified per staging tile — the generator default and a forced 4-row
// tile, so multi-chunk staging and its barrier pairing are covered. Each
// flavor is generated, parsed and lowered once per tile, and that one IR
// feeds every static leg:
//  * per device profile: deep lint (ocl/analyze/deep_lint.hpp) and the
//    zero-run static profile (ocl/analyze/static_profile.hpp);
//  * once per flavor (neither depends on the profile): the bounds & race
//    verifier (ocl/analyze/verify/) under the ALS buffer contracts, and the
//    precision certificate (ocl/analyze/precision/), cross-checked on the
//    fp16/bf16 flavors by the dynamic shadow witness.
// The devsim C++ kernels (flat, the 8 batched variants, their CG flavors,
// subspace and the implicit path) run once under checked execution
// (devsim/check/) on every profile.
//
// The gate fails closed: a parse failure, a lint diagnostic, a
// checked-execution finding, an unprovable reference or race pair, an
// uncertified flavor, a narrow flavor whose witness did not run, overflowed
// or was not dominated, and an empty leg all make clean() false.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "devsim/check/report.hpp"
#include "ocl/analyze/precision/precision.hpp"
#include "ocl/analyze/precision/shadow.hpp"
#include "ocl/analyze/static_profile.hpp"
#include "ocl/analyze/verify/verify.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf {

/// The two settable values; everything else (dataset shape, seed, launch
/// shape, profiles, tiles, precision assumptions) is fixed.
struct CertifyKernelsOptions {
  int k = 10;
  int group_size = 32;
};

/// One devsim kernel/profile combination run under checked execution.
struct CheckedKernelEntry {
  std::string kernel;
  std::string profile;
  devsim::check::CheckReport report;
};

/// One generated flavor's static profile on one device profile.
struct StaticProfileEntry {
  std::string kernel;
  std::string profile;
  ocl::analyze::StaticKernelProfile data;
  std::string json;  ///< profile_json(data, ir): figures + access table
};

/// The profile-independent legs of one generated flavor.
struct FlavorCertificate {
  std::string kernel;
  StoragePrecision storage = StoragePrecision::kFp32;
  ocl::analyze::verify::KernelVerifyReport verify;
  ocl::analyze::precision::PrecisionReport precision;
  /// The dynamic cross-check; not run (default) on fp32 flavors.
  ocl::analyze::precision::ShadowWitness witness;
  /// Static bound >= observed divergence; true when no witness applies
  /// (fp32 flavors), false when a narrow flavor's witness did not run.
  bool dominated = true;

  bool clean() const {
    const bool witnessed =
        storage == StoragePrecision::kFp32 ||
        (witness.ran && dominated && !witness.overflow_observed);
    return verify.clean() && precision.certified && witnessed;
  }
};

/// Every static leg at one staging tile.
struct TileCertificate {
  int tile_rows = 0;  ///< the TILE_ROWS define the flavors were generated at
  /// Parse/lowering/analysis failures, "kernel: message" (fail closed).
  std::vector<std::string> errors;
  /// Deep-lint diagnostics, "profile/kernel.cl:line:col: message".
  std::vector<std::string> lint_issues;
  /// Verifier diagnostics, "kernel.cl:line:col: message", one per
  /// non-proven bounds/race finding.
  std::vector<std::string> diagnostics;
  std::vector<StaticProfileEntry> static_profiles;  ///< profile-major
  std::vector<FlavorCertificate> flavors;           ///< flavor order

  bool clean() const {
    if (!errors.empty() || !lint_issues.empty()) return false;
    if (static_profiles.empty() || flavors.empty()) return false;
    for (const auto& f : flavors) {
      if (!f.clean()) return false;
    }
    return true;
  }
};

struct KernelCertificate {
  int k = 0;
  int group_size = 0;
  std::vector<CheckedKernelEntry> checked;
  std::size_t checked_findings = 0;
  std::size_t checked_launches = 0;
  std::vector<TileCertificate> tiles;

  bool checked_clean() const {
    return !checked.empty() && checked_findings == 0;
  }
  bool clean() const {
    if (!checked_clean() || tiles.empty()) return false;
    for (const auto& t : tiles) {
      if (!t.clean()) return false;
    }
    return true;
  }
  std::string to_json() const;
};

/// Runs every leg. Throws Error on invalid options (validated as a training
/// run's k and group size are); findings are returned, not thrown.
KernelCertificate certify_kernels(const CertifyKernelsOptions& options);

/// Builds the ALS verification contract for one lowered kernel: the CSR
/// buffers (values/col_idx/row_ptr), the factor buffers X/Y and the row
/// count. Shared with the defect-corpus tests so the static leg verifies
/// mutants under the very same assumptions.
ocl::analyze::verify::KernelContract als_kernel_contract(
    const ocl::analyze::KernelIR& ir);

/// Verifies every kernel in one source string against the ALS contracts.
/// Never throws on bad input: parse/lowering failures land in `errors`
/// (fail closed — clean() is then false).
struct VerifySourceResult {
  std::vector<ocl::analyze::verify::KernelVerifyReport> reports;
  std::vector<std::string> errors;

  bool clean() const {
    if (!errors.empty() || reports.empty()) return false;
    for (const auto& r : reports) {
      if (!r.clean()) return false;
    }
    return true;
  }
};
VerifySourceResult verify_kernel_source(const std::string& source);

/// Formats one report's bounds/race findings as clickable
/// "<kernel>.cl:<line>:<col>: message" diagnostics (one per finding).
std::vector<std::string> verify_diagnostics(
    const std::string& kernel,
    const ocl::analyze::verify::KernelVerifyReport& report);

/// One verifier report as the certificate's JSON object: kernel, clean,
/// bounds and races (counts + findings) and the element widths.
std::string verify_json(const std::string& kernel,
                        const ocl::analyze::verify::KernelVerifyReport& report);

}  // namespace alsmf
