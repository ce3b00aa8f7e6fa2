// Deep-lint diagnostics: each check is exercised with a minimal synthetic
// kernel that provably has the defect, and the generated kernels are pinned
// clean — the certify-kernels CI gate depends on both directions.
#include "ocl/analyze/deep_lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ocl/kernel_source.hpp"
#include "testing/kernel_mutator.hpp"

namespace alsmf::ocl::analyze {
namespace {

bool mentions(const LintReport& r, const std::string& needle) {
  return r.to_string().find(needle) != std::string::npos;
}

const char* kPreamble =
    "typedef float real_t;\n"
    "#define K 10\n"
    "#define WS 32\n";

TEST(DeepLint, GeneratedKernelsAreClean) {
  KernelConfig c;
  DeepLintOptions options;
  options.local_capacity_bytes = 48 * 1024;  // the paper's K20c scratch-pad
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const LintReport r = deep_lint_source(batched_kernel_source(v, c), options);
    EXPECT_TRUE(r.clean()) << v.name() << ":\n" << r.to_string();
  }
  EXPECT_TRUE(deep_lint_source(flat_kernel_source(c), options).clean());
}

TEST(DeepLint, FlagsUncoalescedStoreInHotLoop) {
  // One lane scatters through an index array on every nonzero.
  const std::string src = std::string(kPreamble) +
      "__kernel void f(__global const int* row_ptr,\n"
      "                __global const int* col_idx,\n"
      "                __global real_t* out) {\n"
      "  const int u = get_group_id(0);\n"
      "  const int begin = row_ptr[u];\n"
      "  const int omega = row_ptr[u + 1] - begin;\n"
      "  for (int z = 0; z < omega; ++z) {\n"
      "    out[col_idx[begin + z] * K] = (real_t)z;\n"
      "  }\n"
      "}\n";
  const LintReport r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "uncoalesced")) << r.to_string();
  EXPECT_TRUE(mentions(r, "'out'")) << r.to_string();
  // IR-anchored diagnostics carry a clickable line:col position.
  bool positioned = false;
  for (const auto& issue : r.issues) {
    if (issue.message.find("uncoalesced") == std::string::npos) continue;
    EXPECT_GT(issue.line, 0);
    EXPECT_GT(issue.col, 0);
    positioned = true;
    EXPECT_NE(r.to_string().find("line " + std::to_string(issue.line) + ":" +
                                 std::to_string(issue.col) + ":"),
              std::string::npos)
        << r.to_string();
  }
  EXPECT_TRUE(positioned);
}

TEST(DeepLint, ProvesLocalOverflow) {
  const std::string src = std::string(kPreamble) +
      "__kernel void f(__global real_t* out) {\n"
      "  __local real_t tile[4096];\n"  // 16 KiB
      "  const int lx = get_local_id(0);\n"
      "  tile[lx] = (real_t)lx;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = tile[0];\n"
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 8 * 1024;
  const LintReport r = deep_lint_source(src, options);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "exceeding")) << r.to_string();
  options.local_capacity_bytes = 32 * 1024;
  EXPECT_TRUE(deep_lint_source(src, options).clean());
}

TEST(DeepLint, FlagsWorkGroupNarrowerThanK) {
  // WS=8 < K=10: the (lx < K) guarded reduction drops two rows.
  const std::string src =
      "typedef float real_t;\n#define K 10\n#define WS 8\n"
      "__kernel void f(__global real_t* out) {\n"
      "  const int lx = get_local_id(0);\n"
      "  if (lx < K) out[lx] = (real_t)1;\n"
      "}\n";
  const LintReport r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "smaller than K")) << r.to_string();
}

TEST(DeepLint, FlagsStagedTileReadWithoutBarrier) {
  // Lane-partitioned cooperative fill, then a whole-tile read with no
  // barrier in between: lanes read other lanes' stale elements.
  const std::string src = std::string(kPreamble) +
      "__kernel void f(__global const int* row_ptr,\n"
      "                __global const real_t* src,\n"
      "                __global real_t* out) {\n"
      "  __local real_t tile[64];\n"
      "  const int u = get_group_id(0);\n"
      "  const int lx = get_local_id(0);\n"
      "  const int begin = row_ptr[u];\n"
      "  const int omega = row_ptr[u + 1] - begin;\n"
      "  real_t acc = (real_t)0;\n"
      "  for (int z = lx; z < omega; z += WS) tile[z] = src[begin + z];\n"
      "  for (int z = 0; z < omega; ++z) acc += tile[z];\n"
      "  if (lx == 0) out[u] = acc;\n"
      "}\n";
  const LintReport r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "without a barrier")) << r.to_string();

  // The same kernel with the fence is clean.
  std::string fixed = src;
  const std::string read_loop = "  for (int z = 0; z < omega; ++z)";
  fixed.insert(fixed.find(read_loop), "  barrier(CLK_LOCAL_MEM_FENCE);\n");
  EXPECT_TRUE(deep_lint_source(fixed).clean())
      << deep_lint_source(fixed).to_string();
}

TEST(DeepLint, FlagsUnusedKernelArgument) {
  const std::string src = std::string(kPreamble) +
      "__kernel void f(__global real_t* out, __global const real_t* dead,\n"
      "                const real_t lambda) {\n"
      "  out[get_global_id(0)] = lambda;\n"
      "}\n";
  const LintReport r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "'dead' is never used")) << r.to_string();
  EXPECT_FALSE(mentions(r, "'lambda'")) << r.to_string();
}

TEST(DeepLint, FlagsGeneratedBarrierMovedUnderTheLaneZeroSolve) {
  // The barrier after the lane-0 S3 solve, moved inside its branch: only
  // lane 0 reaches it, so the group never leaves it.
  alsmf::testing::KernelMutation m;
  m.name = "barrier_under_lane0_solve";
  m.kernel = kernel_name(AlsVariant::batch_local_reg());
  m.find =
      "    if (lx == 0) cholesky_solve_inplace(smat, svec);\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n";
  m.replace =
      "    if (lx == 0) {\n"
      "      cholesky_solve_inplace(smat, svec);\n"
      "      barrier(CLK_LOCAL_MEM_FENCE);\n"
      "    }\n";
  const std::string base = alsmf::testing::base_source(m, KernelConfig{});
  const auto at = static_cast<std::ptrdiff_t>(base.find(m.find));
  const int barrier_line =
      3 + static_cast<int>(std::count(base.begin(), base.begin() + at, '\n'));

  const LintReport r =
      deep_lint_source(alsmf::testing::apply_mutation(base, m));
  ASSERT_EQ(r.issues.size(), 1u) << r.to_string();
  EXPECT_EQ(r.issues[0].line, barrier_line) << r.to_string();
  EXPECT_TRUE(mentions(r, "lane-divergent")) << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(DeepLint, FlagsBarrierAfterALaneDivergentExit) {
  // Lanes 4+ return (or skip the rest of the trip, or leave the loop), so
  // the barrier after the exit never releases the group. The same exits on
  // a group test lint clean.
  const auto lint = [](const std::string& id, const std::string& exit) {
    const std::string src = std::string(kPreamble) +
        "__kernel void f(__global real_t* out) {\n"
        "  __local real_t t[WS];\n"
        "  for (int i = 0; i < 2; ++i) {\n"
        "    if (" + id + "(0) > 3) " + exit + ";\n"
        "    t[get_local_id(0)] = (real_t)i;\n"
        "    barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    out[get_global_id(0)] = t[0];\n"
        "  }\n"
        "}\n";
    return deep_lint_source(src);
  };
  for (const std::string exit : {"return", "continue", "break"}) {
    SCOPED_TRACE(exit);
    const LintReport lane = lint("get_local_id", exit);
    ASSERT_EQ(lane.issues.size(), 1u) << lane.to_string();
    EXPECT_EQ(lane.issues[0].line, 9) << lane.to_string();
    EXPECT_TRUE(mentions(lane, "lane-divergent")) << lane.to_string();
    const LintReport group = lint("get_group_id", exit);
    EXPECT_TRUE(group.clean()) << group.to_string();
  }
}

TEST(DeepLint, FlagsLocalFenceWithoutLocalMemoryExtraKernelAndTab) {
  LintReport r = deep_lint_source(
      "__kernel void f(__global float* out) {\n"
      "  out[0] = 1;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "}\n");
  ASSERT_EQ(r.issues.size(), 1u) << r.to_string();
  EXPECT_EQ(r.issues[0].line, 3);
  EXPECT_TRUE(mentions(r, "local fence without any __local")) << r.to_string();

  r = deep_lint_source("__kernel void f() {}\n__kernel void g() {\n\t}\n");
  EXPECT_TRUE(mentions(r, "found 2")) << r.to_string();
  EXPECT_TRUE(mentions(r, "line 3: deep: tab character")) << r.to_string();
}

TEST(DeepLint, UnanalyzableSourceFailsTheGate) {
  // Structurally fine (balanced, one kernel) but outside the analyzable
  // subset: must produce a diagnostic, not silently pass.
  const std::string src = std::string(kPreamble) +
      "__kernel void f(__global real_t* out) {\n"
      "  int i = 0;\n"
      "  while (i < 4) { out[i] = (real_t)i; ++i; }\n"
      "}\n";
  const LintReport r = deep_lint_source(src);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "unanalyzable")) << r.to_string();
}

}  // namespace
}  // namespace alsmf::ocl::analyze
