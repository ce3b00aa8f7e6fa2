// JSON and fail-closed behavior of the per-source verifier entry points:
// a failing report serializes its findings, diagnostics are clickable
// file:line:col anchors, and garbage input must land in `errors` with
// clean() == false instead of throwing or passing. (The certificate's
// golden keys are pinned in tests/ocl/certify_kernels_test.cpp.)
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "als/certify_kernels.hpp"
#include "ocl/kernel_source.hpp"
#include "testing/kernel_mutator.hpp"

namespace alsmf {
namespace {

TEST(VerifyJson, MutantReportSerializesFindings) {
  ocl::KernelConfig kc;
  kc.tile_rows = 4;
  const auto mutations = testing::kernel_mutations();
  ASSERT_FALSE(mutations.empty());
  const auto& m = mutations.front();  // off_by_one_gather
  const VerifySourceResult sr =
      verify_kernel_source(testing::mutated_source(m, kc));
  ASSERT_EQ(sr.reports.size(), 1u);
  const std::string json = verify_json(m.kernel, sr.reports[0]);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"proven-violating\""), std::string::npos);
  EXPECT_NE(json.find("\"buffer\":\"Y\""), std::string::npos);
}

// Matches the golden "<kernel>.cl:<line>:<col>: " diagnostic prefix with
// line >= 1 (std::regex is avoided: GCC 12's <regex> trips
// -Wmaybe-uninitialized under the sanitized -Werror build).
bool has_clickable_anchor(const std::string& d) {
  const std::size_t ext = d.find(".cl:");
  if (ext == std::string::npos || ext == 0) return false;
  for (std::size_t i = 0; i < ext; ++i) {
    if (!std::isalnum(static_cast<unsigned char>(d[i])) && d[i] != '_') {
      return false;
    }
  }
  std::size_t i = ext + 4;
  std::size_t line_digits = 0;
  while (i < d.size() && std::isdigit(static_cast<unsigned char>(d[i]))) {
    ++i;
    ++line_digits;
  }
  if (line_digits == 0 || d[ext + 4] == '0') return false;
  if (i >= d.size() || d[i] != ':') return false;
  ++i;
  std::size_t col_digits = 0;
  while (i < d.size() && std::isdigit(static_cast<unsigned char>(d[i]))) {
    ++i;
    ++col_digits;
  }
  return col_digits > 0 && i + 1 < d.size() && d[i] == ':' && d[i + 1] == ' ';
}

TEST(VerifyJson, DiagnosticsAreClickableFileLineCol) {
  ocl::KernelConfig kc;
  kc.tile_rows = 4;
  std::size_t total = 0;
  for (const auto& m : testing::kernel_mutations()) {
    const VerifySourceResult sr =
        verify_kernel_source(testing::mutated_source(m, kc));
    for (const auto& report : sr.reports) {
      for (const auto& d : verify_diagnostics(m.kernel, report)) {
        EXPECT_TRUE(has_clickable_anchor(d)) << d;
        ++total;
      }
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(VerifyJson, GarbageSourceFailsClosedWithoutThrowing) {
  const VerifySourceResult garbage =
      verify_kernel_source("@@@ not opencl at all {{{");
  EXPECT_FALSE(garbage.clean());
  EXPECT_FALSE(garbage.errors.empty());
  EXPECT_TRUE(garbage.reports.empty());

  // Truncated generator output: valid prefix, chopped mid-kernel.
  const std::string full = ocl::flat_kernel_source(ocl::KernelConfig{});
  const VerifySourceResult truncated =
      verify_kernel_source(full.substr(0, full.size() / 2));
  EXPECT_FALSE(truncated.clean());
  EXPECT_FALSE(truncated.errors.empty());

  const VerifySourceResult empty = verify_kernel_source("");
  EXPECT_FALSE(empty.clean());
  EXPECT_FALSE(empty.errors.empty());
}

}  // namespace
}  // namespace alsmf
