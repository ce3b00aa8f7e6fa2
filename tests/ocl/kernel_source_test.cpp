#include "ocl/kernel_source.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ocl/analyze/deep_lint.hpp"
#include "ocl/analyze/lexer.hpp"
#include "ocl/kernel_flavors.hpp"

namespace alsmf::ocl {
namespace {

using analyze::deep_lint_source;
using analyze::DeepLintOptions;
using analyze::LintReport;

KernelConfig config(int k = 10, int ws = 32) {
  KernelConfig c;
  c.k = k;
  c.group_size = ws;
  return c;
}

TEST(KernelSource, AllVariantsLintClean) {
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const std::string src = batched_kernel_source(v, config());
    const LintReport report = deep_lint_source(src);
    EXPECT_TRUE(report.clean())
        << v.name() << ":\n" << report.to_string();
  }
}

TEST(KernelSource, FlatLintClean) {
  const std::string src = flat_kernel_source(config());
  const LintReport report = deep_lint_source(src);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(KernelSource, LocalVariantDeclaresStagingTile) {
  const std::string with_local =
      batched_kernel_source(AlsVariant::batch_local(), config());
  EXPECT_NE(with_local.find("__local real_t tile[TILE_ROWS * K]"),
            std::string::npos);
  EXPECT_NE(with_local.find("rstage"), std::string::npos);

  const std::string without =
      batched_kernel_source(AlsVariant::batching_only(), config());
  EXPECT_EQ(without.find("tile[TILE_ROWS"), std::string::npos);
}

TEST(KernelSource, RegisterVariantUnrollsAccumulators) {
  const std::string with_reg =
      batched_kernel_source(AlsVariant::from_mask(1), config(10));
  // Fig. 3b: scalar registers sum0..sum9, no dynamically indexed array.
  EXPECT_NE(with_reg.find("sum0"), std::string::npos);
  EXPECT_NE(with_reg.find("sum9"), std::string::npos);
  EXPECT_EQ(with_reg.find("real_t sum[K]"), std::string::npos);

  const std::string without =
      batched_kernel_source(AlsVariant::batching_only(), config(10));
  EXPECT_NE(without.find("real_t sum[K]"), std::string::npos);
  EXPECT_EQ(without.find("sum9"), std::string::npos);
}

TEST(KernelSource, VectorVariantUsesVloadN) {
  const std::string with_vec =
      batched_kernel_source(AlsVariant::batch_vectors(), config(16));
  EXPECT_NE(with_vec.find("vload16"), std::string::npos);
  const std::string k10 =
      batched_kernel_source(AlsVariant::batch_vectors(), config(10));
  EXPECT_NE(k10.find("vload2"), std::string::npos);  // widest divisor of 10

  const std::string without =
      batched_kernel_source(AlsVariant::batching_only(), config(16));
  EXPECT_EQ(without.find("vload"), std::string::npos);
}

TEST(KernelSource, EntryPointNamesMatchVariant) {
  EXPECT_EQ(kernel_name(AlsVariant::batching_only()), "als_update_batch");
  EXPECT_EQ(kernel_name(AlsVariant::batch_local_reg()),
            "als_update_batch_local_reg");
  EXPECT_EQ(kernel_name(AlsVariant::from_mask(7)),
            "als_update_batch_local_reg_vec");
  EXPECT_EQ(kernel_name(AlsVariant::flat_baseline()), "als_update_flat");
  // The entry point actually appears in the source.
  const std::string src =
      batched_kernel_source(AlsVariant::batch_local_reg(), config());
  EXPECT_NE(src.find("__kernel void als_update_batch_local_reg("),
            std::string::npos);
}

TEST(KernelSource, StridedRowLoopAndBarriers) {
  const std::string src =
      batched_kernel_source(AlsVariant::batch_local(), config());
  // The paper's 8192-group strided mapping.
  EXPECT_NE(src.find("u += stride"), std::string::npos);
  EXPECT_NE(src.find("get_num_groups(0)"), std::string::npos);
  EXPECT_NE(src.find("barrier(CLK_LOCAL_MEM_FENCE)"), std::string::npos);
}

TEST(KernelSource, DoublePrecisionToggle) {
  KernelConfig c = config();
  c.use_double = true;
  const std::string src =
      batched_kernel_source(AlsVariant::batching_only(), c);
  EXPECT_NE(src.find("cl_khr_fp64"), std::string::npos);
  EXPECT_NE(src.find("typedef double real_t"), std::string::npos);
}

TEST(KernelSource, BuildOptionsEncodeConstants) {
  KernelConfig c = config(20, 64);
  const std::string opts = build_options(c);
  EXPECT_NE(opts.find("-DK=20"), std::string::npos);
  EXPECT_NE(opts.find("-DWS=64"), std::string::npos);
}

TEST(KernelSource, WritesOneFilePerKernelFlavor) {
  // flat + 8 fp32 + 8 fp16-storage + 8 bf16-storage = 25.
  const int flavors =
      static_cast<int>(enumerate_kernel_flavors(config()).size());
  const std::string dir = ::testing::TempDir() + "/alsmf_kernels";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(write_kernel_files(dir, config()), flavors);
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".cl");
    std::ifstream in(entry.path());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_TRUE(deep_lint_source(content).clean()) << entry.path();
    ++count;
  }
  EXPECT_EQ(count, flavors);
}

TEST(KernelSource, NarrowStorageTypedefAndWideAccumulation) {
  KernelConfig c = config();
  c.storage = StoragePrecision::kFp16;
  const std::string f16 =
      batched_kernel_source(AlsVariant::batching_only(), c);
  EXPECT_NE(f16.find("#pragma OPENCL EXTENSION cl_khr_fp16 : enable"),
            std::string::npos);
  EXPECT_NE(f16.find("typedef half storage_t"), std::string::npos);
  // Buffers narrow; every accumulator stays real_t (the certified shape).
  EXPECT_NE(f16.find("__global const storage_t* restrict Y"),
            std::string::npos);
  EXPECT_NE(f16.find("real_t sum[K]"), std::string::npos);
  EXPECT_EQ(f16.find("storage_t sum"), std::string::npos);
  EXPECT_NE(kernel_name(AlsVariant::batching_only(), StoragePrecision::kFp16),
            kernel_name(AlsVariant::batching_only(), StoragePrecision::kFp32));

  c.storage = StoragePrecision::kBf16;
  const std::string bf16 =
      batched_kernel_source(AlsVariant::batching_only(), c);
  EXPECT_NE(bf16.find("typedef bfloat16 storage_t"), std::string::npos);
  // bf16 needs no fp16 extension.
  EXPECT_EQ(bf16.find("cl_khr_fp16"), std::string::npos);
}

TEST(KernelSource, FlatRejectsBatchedGenerator) {
  EXPECT_THROW(batched_kernel_source(AlsVariant::flat_baseline(), config()),
               alsmf::Error);
}

// The first unbalanced (), {} or [] in comment-stripped C text, as
// "line N: ..."; "" when every delimiter pairs up.
std::string unbalanced_delimiter(const std::string& text) {
  const std::string code = analyze::strip_comments(text);
  std::vector<std::pair<char, int>> open;
  int line = 1;
  for (char ch : code) {
    if (ch == '\n') ++line;
    if (ch == '(' || ch == '{' || ch == '[') open.push_back({ch, line});
    if (ch != ')' && ch != '}' && ch != ']') continue;
    const char want = ch == ')' ? '(' : (ch == '}' ? '{' : '[');
    if (open.empty() || open.back().first != want) {
      return "line " + std::to_string(line) + ": unbalanced '" + ch + "'";
    }
    open.pop_back();
  }
  if (open.empty()) return "";
  return "line " + std::to_string(open.back().second) + ": unclosed '" +
         open.back().first + "'";
}

TEST(HostDriver, StructurallySound) {
  const std::string src =
      host_driver_source(AlsVariant::batch_local_reg(), config());
  // Balanced delimiters (host C is not the OpenCL subset deep lint parses).
  EXPECT_EQ(unbalanced_delimiter(src), "");
  EXPECT_EQ(unbalanced_delimiter("int f() {\n  (void)0;\n"),
            "line 1: unclosed '{'");
  // Loads the right kernel file and entry point, with build options.
  EXPECT_NE(src.find("als_update_batch_local_reg.cl"), std::string::npos);
  EXPECT_NE(src.find("clCreateKernel(prog, \"als_update_batch_local_reg\""),
            std::string::npos);
  EXPECT_NE(src.find("-DK=10"), std::string::npos);
  // Runs both half-updates per iteration.
  EXPECT_NE(src.find("update X over Y"), std::string::npos);
  EXPECT_NE(src.find("update Y over X"), std::string::npos);
}

TEST(HostDriver, WritesFile) {
  const std::string dir = ::testing::TempDir() + "/alsmf_host";
  const std::string path =
      write_host_driver(dir, AlsVariant::batch_local(), config());
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("#include <CL/cl.h>"), std::string::npos);
}

// --- lint self-tests (deep lint) ---

bool mentions(const LintReport& r, const std::string& needle) {
  return r.to_string().find(needle) != std::string::npos;
}

// Lines of the lane-divergent barrier diagnostics in `r`.
std::vector<int> divergent_barrier_lines(const LintReport& r) {
  std::vector<int> lines;
  for (const auto& issue : r.issues) {
    if (issue.message.find("lane-divergent") != std::string::npos) {
      lines.push_back(issue.line);
    }
  }
  return lines;
}

const char* kDefines = "#define K 10\n#define WS 32\n";

TEST(KernelLint, DetectsUnbalancedBraces) {
  const auto r = deep_lint_source("__kernel void f() { if (1) { }");
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLint, DetectsMissingKernel) {
  const auto r = deep_lint_source("void helper() {}");
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "found 0")) << r.to_string();
}

TEST(KernelLint, IgnoresCommentsAndCountsKernels) {
  const auto r = deep_lint_source(
      "// not a real } brace\n/* __kernel in comment */\n"
      "__kernel void f() { (void)0; }\n");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(KernelLint, FlagsBarrierOutsideKernel) {
  const auto r = deep_lint_source(
      "void h() { barrier(0); }\n__kernel void f() {}");
  ASSERT_EQ(r.issues.size(), 1u) << r.to_string();
  EXPECT_TRUE(mentions(r, "helper function 'h'")) << r.to_string();
  EXPECT_EQ(r.issues[0].line, 1);
}

// --- divergent-barrier detection ---

TEST(KernelLint, FlagsBarrierInsideGetLocalIdConditional) {
  const auto r = deep_lint_source(
      "__kernel void f(__local float* t) {\n"
      "  if (get_local_id(0) == 0) {\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(divergent_barrier_lines(r), std::vector<int>{3}) << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLint, TracksLaneAliasesThroughAssignments) {
  // lx aliases get_local_id, p is derived from lx: both divergent.
  const auto r = deep_lint_source(
      "__kernel void f(__local float* t) {\n"
      "  const int lx = get_local_id(0);\n"
      "  const int p = lx * 2;\n"
      "  if (p < 4) barrier(CLK_LOCAL_MEM_FENCE);\n"
      "}\n");
  EXPECT_EQ(divergent_barrier_lines(r), std::vector<int>{4}) << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLint, FlagsBarrierInsideDivergentLoop) {
  // Lanes at or past K run no trip of the lane-partitioned loop.
  const auto r = deep_lint_source(
      std::string(kDefines) +
      "__kernel void f(__local float* t) {\n"
      "  for (int i = get_local_id(0); i < K; i += WS) {\n"
      "    t[i] = 0;\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(divergent_barrier_lines(r), std::vector<int>{6}) << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLint, FlagsBarrierInDivergentElseBranch) {
  const auto r = deep_lint_source(
      "__kernel void f(__local float* t) {\n"
      "  const int lx = get_local_id(0);\n"
      "  if (lx == 0) {\n"
      "    t[0] = 1;\n"
      "  } else {\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(divergent_barrier_lines(r), std::vector<int>{6}) << r.to_string();
  EXPECT_FALSE(mentions(r, "unanalyzable")) << r.to_string();
}

TEST(KernelLint, AcceptsBarrierAfterDivergentScopeCloses) {
  // The generated kernels' shape: lane-strided loop, then a barrier at
  // group scope. Uniform (group-id based) conditions are also fine.
  const auto r = deep_lint_source(
      std::string(kDefines) +
      "__kernel void f(__local float* t) {\n"
      "  const int lx = get_local_id(0);\n"
      "  const int g = get_group_id(0);\n"
      "  for (int i = lx; i < K; i += WS) t[i] = 0;\n"
      "  if (lx == 0) t[0] = 1;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  if (g == 0) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
      "}\n");
  EXPECT_TRUE(r.clean()) << r.to_string();
}

// --- __local capacity check ---

TEST(KernelLint, FlagsLocalDeclarationsOverCapacity) {
  const std::string src =
      "#define K 16\n"
      "typedef float real_t;\n"
      "__kernel void f() {\n"
      "  __local real_t tile[K * K];\n"  // 1024 bytes
      "  __local real_t extra[K];\n"     // + 64 bytes
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 1024;
  const auto r = deep_lint_source(src, options);
  ASSERT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "1088 bytes")) << r.to_string();
  EXPECT_TRUE(mentions(r, "1024-byte")) << r.to_string();

  options.local_capacity_bytes = 2048;
  EXPECT_TRUE(deep_lint_source(src, options).clean());
  // Capacity 0 = unknown device: check skipped.
  EXPECT_TRUE(deep_lint_source(src).clean());
}

TEST(KernelLint, CapacityUsesRealTypedefWidth) {
  const std::string src =
      "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n"
      "typedef double real_t;\n"
      "__kernel void f() {\n"
      "  __local real_t a[100];\n"  // 800 bytes as double
      "}\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 512;
  EXPECT_FALSE(deep_lint_source(src, options).clean());
  options.local_capacity_bytes = 1024;
  EXPECT_TRUE(deep_lint_source(src, options).clean());
}

TEST(KernelLint, LocalPointerParametersAreExempt) {
  const std::string src =
      "void helper(__local float* a, __local float* b) { a[0] = b[0]; }\n"
      "__kernel void f(__local float* t) { helper(t, t); }\n";
  DeepLintOptions options;
  options.local_capacity_bytes = 1;  // any declaration would trip this
  const auto r = deep_lint_source(src, options);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(KernelLint, GeneratedKernelsRespectGpuScratchpad) {
  // The paper's K20c has a 48 KiB scratch-pad; every generated variant at
  // the default configuration must fit (and must not barrier divergently).
  DeepLintOptions options;
  options.local_capacity_bytes = 48 * 1024;
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const std::string src = batched_kernel_source(v, config());
    const LintReport report = deep_lint_source(src, options);
    EXPECT_TRUE(report.clean()) << v.name() << ":\n" << report.to_string();
  }
  // An implausibly small scratch-pad is detected on the staging variant.
  options.local_capacity_bytes = 256;
  const std::string staged =
      batched_kernel_source(AlsVariant::batch_local(), config());
  EXPECT_FALSE(deep_lint_source(staged, options).clean());
}

}  // namespace
}  // namespace alsmf::ocl
