// Front-end and lowering tests: every generated kernel source must parse
// into the access IR with the structure the generator promises (loop kinds,
// coalescing classes, staging, lane-0 solve), because everything downstream
// (deep lint, static profiles, zero-run ranking) trusts these facts.
#include <gtest/gtest.h>

#include <string>

#include "ocl/analyze/ir.hpp"
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
