// Front-end and lowering tests: every generated kernel source must parse
// into the access IR with the structure the generator promises (loop kinds,
// coalescing classes, staging, lane-0 solve), because everything downstream
// (deep lint, static profiles, zero-run ranking) trusts these facts.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "ocl/analyze/ir.hpp"
#include "ocl/analyze/lexer.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf::ocl::analyze {
namespace {

KernelConfig config(int k = 10, int ws = 32) {
  KernelConfig c;
  c.k = k;
  c.group_size = ws;
  return c;
}

KernelIR lower_one(const std::string& source) {
  const auto kernels = lower_kernels(parse_translation_unit(source));
  EXPECT_EQ(kernels.size(), 1u);
  return kernels.front();
}

TEST(AnalyzeIr, AllBatchedVariantsLowerWithMatchingStructure) {
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const KernelIR ir = lower_one(batched_kernel_source(v, config()));
    EXPECT_EQ(ir.name, kernel_name(v));
    EXPECT_TRUE(ir.batched_mapping) << v.name();
    EXPECT_EQ(ir.k, 10);
    EXPECT_EQ(ir.ws, 32);
    // Structural flags mirror the variant toggles.
    EXPECT_EQ(ir.has_unrolled_accumulators, v.use_registers) << v.name();
    EXPECT_EQ(ir.has_local_staging, v.use_local) << v.name();
    EXPECT_EQ(ir.has_vector_ops, v.use_vectors) << v.name();
    // Every batched variant solves the k×k system on lane 0.
    EXPECT_TRUE(ir.has_lane0_solve) << v.name();
    // Every argument of a generated kernel is live.
    for (const auto& a : ir.args) EXPECT_TRUE(a.used) << v.name() << " " << a.name;
  }
}

TEST(AnalyzeIr, BatchedRowLoopIsStridedAndNnzLoopsDetected) {
  const KernelIR ir =
      lower_one(batched_kernel_source(AlsVariant::batching_only(), config()));
  bool has_row_stride = false, has_nnz = false;
  for (const auto& l : ir.loops) {
    has_row_stride |= l.kind == LoopIR::Kind::kRowStride;
    has_nnz |= l.kind == LoopIR::Kind::kNnz;
  }
  EXPECT_TRUE(has_row_stride);
  EXPECT_TRUE(has_nnz);
}

TEST(AnalyzeIr, LocalVariantChunksTheNnzLoopAndDeclaresTile) {
  const KernelIR ir =
      lower_one(batched_kernel_source(AlsVariant::batch_local(), config()));
  bool has_chunked = false, has_chunk_body = false;
  for (const auto& l : ir.loops) {
    has_chunked |= l.kind == LoopIR::Kind::kChunked;
    has_chunk_body |= l.kind == LoopIR::Kind::kChunkBody;
  }
  EXPECT_TRUE(has_chunked);
  EXPECT_TRUE(has_chunk_body);
  // tile[TILE_ROWS * K] + rstage[TILE_ROWS] + the shared solve buffers.
  EXPECT_GT(ir.declared_local_bytes(), 0);
  EXPECT_FALSE(ir.barriers.empty());
  bool hot_barrier = false;
  for (const auto& b : ir.barriers) hot_barrier |= b.freq.per_chunk > 0;
  EXPECT_TRUE(hot_barrier);
}

TEST(AnalyzeIr, FlatKernelIsUnbatchedWithGatheredTraversal) {
  const KernelIR ir = lower_one(flat_kernel_source(config()));
  EXPECT_EQ(ir.name, "als_update_flat");
  EXPECT_FALSE(ir.batched_mapping);
  EXPECT_FALSE(ir.has_lane0_solve);
  // The factor rows are gathered through col_idx — the flat baseline's
  // divergence/coalescing weakness the paper's §III-B targets.
  bool gathered_y = false;
  for (const auto& t : ir.traffic) {
    gathered_y |= t.kind == TrafficIR::Kind::kGatherTraversal &&
                  t.buffer == "Y" && t.freq.per_nnz > 0;
  }
  EXPECT_TRUE(gathered_y);
}

TEST(AnalyzeIr, LanePartitionedOutputStoreIsUnitStride) {
  // `for (f = lx; f < K; f += WS) X[u * K + f]`: consecutive lanes store
  // consecutive elements, while the factor rows stay gathered.
  const KernelIR ir =
      lower_one(batched_kernel_source(AlsVariant::batching_only(), config()));
  bool unit_x = false, gathered_y = false;
  for (const auto& r : ir.refs) {
    if (r.buffer == "X" && r.is_store) {
      unit_x |= r.coalescing == Coalescing::kUnitStride;
    }
    if (r.buffer == "Y" && r.hot) {
      gathered_y |= r.coalescing == Coalescing::kGathered;
    }
  }
  EXPECT_TRUE(unit_x);
  EXPECT_TRUE(gathered_y);
}

TEST(AnalyzeIr, NoGlobalStoresInHotLoops) {
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const KernelIR ir = lower_one(batched_kernel_source(v, config()));
    for (const auto& r : ir.refs) {
      if (r.space != MemSpace::kGlobal || !r.is_store) continue;
      EXPECT_FALSE(r.hot) << v.name() << " stores to " << r.buffer
                          << " inside a hot loop";
    }
  }
}

TEST(AnalyzeIr, BarriersOnlySomeLanesReachAreDivergent) {
  // A direct get_local_id() call in the condition.
  KernelIR ir = lower_one(
      "__kernel void f(__local float* t) {\n"
      "  if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
      "}\n");
  ASSERT_EQ(ir.barriers.size(), 1u);
  EXPECT_TRUE(ir.barriers[0].divergent);

  // The else branch of a lane test holds the other lanes.
  ir = lower_one(
      "__kernel void f(__local float* t) {\n"
      "  const int lx = get_local_id(0);\n"
      "  if (lx == 0) { t[0] = 1; } else {\n"
      "    t[1] = 2;\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(ir.barriers.size(), 1u);
  EXPECT_TRUE(ir.barriers[0].divergent);
  ASSERT_EQ(ir.refs.size(), 2u);
  EXPECT_EQ(ir.refs[1].line, 4);
  EXPECT_TRUE(ir.refs[1].divergent_guard);

  // A loop bound assigned under a lane test varies across lanes; the same
  // bound assigned under a group test does not.
  const auto bounded_by = [](const std::string& id) {
    return "__kernel void f(__local float* t) {\n"
           "  int lim = 0;\n"
           "  if (" + id + "(0) < 4) lim = 8;\n"
           "  for (int i = 0; i < lim; ++i) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
           "}\n";
  };
  ir = lower_one(bounded_by("get_local_id"));
  ASSERT_EQ(ir.barriers.size(), 1u);
  EXPECT_TRUE(ir.barriers[0].divergent);
  ir = lower_one(bounded_by("get_group_id"));
  ASSERT_EQ(ir.barriers.size(), 1u);
  EXPECT_FALSE(ir.barriers[0].divergent);
}

TEST(AnalyzeIr, BarriersAfterALaneDivergentExitAreDivergent) {
  // Lanes that leave early never reach a later barrier of the exit's
  // scope: the rest of the kernel after `return`, the rest of the loop
  // after `continue` or `break`. The same exits on a group test leave
  // together, so the barriers stay uniform.
  // A launch guard on a lane id exits per lane too, although it is not a
  // lane guard for the references after it.
  KernelIR guarded = lower_one(
      "__kernel void f(__local float* t, const int rows) {\n"
      "  const int u = get_global_id(0);\n"
      "  if (u >= rows) return;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "}\n");
  ASSERT_EQ(guarded.barriers.size(), 1u);
  EXPECT_TRUE(guarded.barriers[0].divergent);

  for (const std::string id : {"get_local_id", "get_group_id"}) {
    SCOPED_TRACE(id);
    const bool lane = id == "get_local_id";
    KernelIR ir = lower_one(
        "__kernel void f(__local float* t) {\n"
        "  if (" + id + "(0) > 3) return;\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "}\n");
    ASSERT_EQ(ir.barriers.size(), 1u);
    EXPECT_EQ(ir.barriers[0].divergent, lane);

    // After a continue, the rest of the loop; the loop's first barrier and
    // the barrier after the loop are reached by every lane.
    ir = lower_one(
        "__kernel void f(__local float* t) {\n"
        "  for (int i = 0; i < 4; ++i) {\n"
        "    barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    if (" + id + "(0) > i) continue;\n"
        "    barrier(CLK_LOCAL_MEM_FENCE);\n"
        "  }\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "}\n");
    ASSERT_EQ(ir.barriers.size(), 3u);
    EXPECT_FALSE(ir.barriers[0].divergent);
    EXPECT_EQ(ir.barriers[1].divergent, lane);
    EXPECT_FALSE(ir.barriers[2].divergent);

    // After a break, or a return inside the loop, every barrier of the
    // loop: the lanes that left miss the first one on later trips too.
    // After the loop, only the return's lanes are still missing.
    for (const std::string exit : {"break", "return"}) {
      SCOPED_TRACE(exit);
      ir = lower_one(
          "__kernel void f(__local float* t) {\n"
          "  for (int i = 0; i < 4; ++i) {\n"
          "    barrier(CLK_LOCAL_MEM_FENCE);\n"
          "    if (" + id + "(0) > i) " + exit + ";\n"
          "    barrier(CLK_LOCAL_MEM_FENCE);\n"
          "  }\n"
          "  barrier(CLK_LOCAL_MEM_FENCE);\n"
          "}\n");
      ASSERT_EQ(ir.barriers.size(), 3u);
      EXPECT_EQ(ir.barriers[0].divergent, lane);
      EXPECT_EQ(ir.barriers[1].divergent, lane);
      EXPECT_EQ(ir.barriers[2].divergent, lane && exit == "return");
    }
  }
}

TEST(AnalyzeIr, ConstantExpressionsBindProductsFirst) {
  const std::map<std::string, std::string> defines = {
      {"A", "2 + 3 * 4"},
      {"B", "2 * 3 + 4"},
      {"C", "20 / 2 - 3"},
      {"D", "(2 + 3) * 4"},
  };
  for (const auto& [name, want] : std::map<std::string, long>{
           {"A", 14}, {"B", 10}, {"C", 7}, {"D", 20}}) {
    long got = 0;
    ASSERT_TRUE(eval_define(name, defines, got)) << name;
    EXPECT_EQ(got, want) << name << " = " << defines.at(name);
  }

  const KernelIR ir = lower_one(
      "#define N 2 + 3 * 4\n"
      "__kernel void f(__global float* out) {\n"
      "  __local float a[N];\n"
      "  a[get_local_id(0)] = 1;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = a[0];\n"
      "}\n");
  ASSERT_EQ(ir.locals.size(), 1u);
  EXPECT_EQ(ir.locals[0].elems, 14);
}

TEST(AnalyzeIr, UnanalyzableLoopThrowsParseErrorWithLine) {
  const std::string src =
      "__kernel void f(__global float* out) {\n"
      "  int i = 0;\n"
      "  while (i < 4) { out[i] = 0; ++i; }\n"
      "}\n";
  try {
    lower_kernels(parse_translation_unit(src));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.line, 1);
    EXPECT_FALSE(e.message.empty());
  }
}

}  // namespace
}  // namespace alsmf::ocl::analyze
