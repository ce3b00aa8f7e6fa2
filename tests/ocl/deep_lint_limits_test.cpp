// Deep-lint regression tests for the taint rules and the __local sizing:
// control-dependent divergence, and the #define/typedef arithmetic the
// capacity check relies on.
#include <gtest/gtest.h>

#include <string>

#include "ocl/analyze/deep_lint.hpp"

namespace alsmf::ocl::analyze {
namespace {

bool mentions(const LintReport& r, const std::string& needle) {
  return r.to_string().find(needle) != std::string::npos;
}

TEST(KernelLintLimits, BarrierInLoopBoundedByControlDependentValue) {
  // lim is assigned under a lane-divergent branch, so the loop trip count
  // diverges across lanes and the barrier deadlocks.
  const std::string src =
      "__kernel void f(__local float* t) {\n"
      "  int lim = 0;\n"
      "  if (get_local_id(0) < 4) lim = 8;\n"
      "  for (int i = 0; i < lim; ++i) {\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n";
  const auto r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "line 5: deep: f: barrier() inside lane-divergent"))
      << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLintLimits, UniformControlDependenceStaysClean) {
  // The same shape conditioned on the group id is uniform per group.
  const std::string src =
      "__kernel void f(__local float* t) {\n"
      "  int lim = 0;\n"
      "  if (get_group_id(0) < 4) lim = 8;\n"
      "  for (int i = 0; i < lim; ++i) {\n"
      "    t[i] = 0;\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n";
  const auto r = deep_lint_source(src);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

// --- #define / typedef arithmetic in the __local sizing ---

TEST(KernelLintLimits, SizesLocalsThroughChainedDefines) {
  const std::string src =
      "#define K 10\n"
      "#define TILE_ROWS 8\n"
      "#define TILE_ELEMS (TILE_ROWS * K)\n"
      "typedef float real_t;\n"
      "__kernel void f(__global real_t* out) {\n"
      "  __local real_t tile[TILE_ELEMS + K];\n"  // 90 floats = 360 bytes
      "  tile[0] = 1;\n"
      "  out[0] = tile[0];\n"
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 383;
  const auto r = deep_lint_source(src, options);
  ASSERT_FALSE(r.clean());
  // 360 bytes, padded to the 64-byte allocation granule.
  EXPECT_TRUE(mentions(r, "need 384 bytes")) << r.to_string();
  options.local_capacity_bytes = 384;
  EXPECT_TRUE(deep_lint_source(src, options).clean());
}

TEST(KernelLintLimits, RedefinedRealTypedefChangesElementWidth) {
  // real_t re-typedef'd to double doubles every extent.
  const std::string src =
      "#define N 64\n"
      "typedef double real_t;\n"
      "__kernel void f(__global real_t* out) {\n"
      "  __local real_t a[N];\n"  // 512 bytes as double
      "  a[0] = 1;\n"
      "  out[0] = a[0];\n"
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 384;
  EXPECT_FALSE(deep_lint_source(src, options).clean());
  options.local_capacity_bytes = 512;
  EXPECT_TRUE(deep_lint_source(src, options).clean());
}

TEST(KernelLintLimits, NonConstantExtentIsNotSilentlyUndercounted) {
  // An extent the evaluator cannot fold must not shrink the total below a
  // sibling declaration that alone exceeds the budget.
  const std::string src =
      "#define K 10\n"
      "typedef float real_t;\n"
      "__kernel void f(__global real_t* out, int n) {\n"
      "  __local real_t big[1024];\n"  // 4096 bytes on its own
      "  __local real_t dyn[n];\n"
      "  big[0] = 1;\n"
      "  out[0] = big[0];\n"
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 2048;
  const auto r = deep_lint_source(src, options);
  EXPECT_TRUE(mentions(r, "'dyn' has a statically unsizable extent"))
      << r.to_string();
  EXPECT_TRUE(mentions(r, "need 4096 bytes")) << r.to_string();
}

}  // namespace
}  // namespace alsmf::ocl::analyze
