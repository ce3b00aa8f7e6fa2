// Exact-count regression tests for the kernels' device-activity formulas.
// A single row with a known nonzero count makes every recorded quantity a
// closed-form number; these tests pin the accounting so model changes are
// deliberate, not accidental.
#include <gtest/gtest.h>

#include "als/kernels.hpp"
#include "testing/reference.hpp"
#include "linalg/cholesky.hpp"
#include "sparse/convert.hpp"

namespace alsmf {
namespace {

constexpr int kK = 10;
constexpr double kOmega = 7;
constexpr double kPairs = 0.5 * kK * (kK + 1);  // 55

/// One row with 7 nonzeros; src factor sized to match.
struct OneRow {
  Csr r;
  Matrix src, dst;
  OneRow() {
    Coo coo(1, 16);
    for (index_t i = 0; i < static_cast<index_t>(kOmega); ++i) {
      coo.add(0, i * 2, 3.0f);
    }
    r = coo_to_csr(coo);
    src = Matrix(16, kK, 0.1f);
    dst = Matrix(1, kK);
  }
};

devsim::LaunchCounters run(const AlsVariant& v,
                           const devsim::DeviceProfile& p, int ws) {
  OneRow fixture;
  devsim::Device device(p);
  UpdateArgs args;
  args.r = &fixture.r;
  args.src = &fixture.src;
  args.dst = &fixture.dst;
  args.lambda = 0.1f;
  args.k = kK;
  args.variant = v;
  return launch_update(device, "u", args, 1, ws, false).counters;
}

devsim::LaunchCounters section(const AlsVariant& v,
                               const devsim::DeviceProfile& p, int ws,
                               const std::string& name) {
  OneRow fixture;
  devsim::Device device(p);
  UpdateArgs args;
  args.r = &fixture.r;
  args.src = &fixture.src;
  args.dst = &fixture.dst;
  args.lambda = 0.1f;
  args.k = kK;
  args.variant = v;
  launch_update(device, "u", args, 1, ws, false);
  for (const auto& [key, s] : device.stats()) {
    if (key == "u/" + name) return s.counters;
  }
  return {};
}

TEST(AccountingExact, BatchedS1OpsGpuWs32) {
  // ws=32 on a 32-wide SIMT device: 1 bundle, 1 pass.
  // S1 ops = 1 bundle * 32 lanes * 1 pass * omega * k = 32*7*10 = 2240,
  // plus one staging chunk's two barriers: 2 * 30 * 1 bundle * 32 = 1920.
  const auto s1 = section(AlsVariant::batch_local(), devsim::k20c(), 32, "S1");
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, 2240.0 + 1920.0);
}

TEST(AccountingExact, BatchedS1PassesDoubleAtWs8) {
  // ws=8 with k=10: passes = ceil(10/8) = 2 — the Fig. 10 mechanism.
  // The bundle still occupies a full 32-wide warp: 1*32*2*7*10 = 4480,
  // plus barriers 2*30*1*32 = 1920.
  const auto s1 = section(AlsVariant::batch_local(), devsim::k20c(), 8, "S1");
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, 4480.0 + 1920.0);
}

TEST(AccountingExact, BatchedS1BundlesDoubleAtWs64) {
  // ws=64: 2 resident bundles, 1 pass: 2*32*1*7*10 = 4480, plus barriers
  // 2*30*2*32 = 3840.
  const auto s1 = section(AlsVariant::batch_local(), devsim::k20c(), 64, "S1");
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, 4480.0 + 3840.0);
}

TEST(AccountingExact, BatchedS2OpsAndFlops) {
  const auto s2 = section(AlsVariant::batch_local(), devsim::k20c(), 32, "S2");
  // ops = 1*32*1*7 = 224; flops = 2*k*omega = 140.
  EXPECT_DOUBLE_EQ(s2.lane_ops_scalar, 224.0);
  EXPECT_DOUBLE_EQ(s2.useful_flops, 140.0);
}

TEST(AccountingExact, BatchedS3IsSolverFlopsTimesGroupWidth) {
  const auto s3 = section(AlsVariant::batch_local(), devsim::k20c(), 32, "S3");
  EXPECT_DOUBLE_EQ(s3.lane_ops_scalar, 32.0 * cholesky_solve_flops(kK));
  EXPECT_DOUBLE_EQ(s3.useful_flops, cholesky_solve_flops(kK));
}

TEST(AccountingExact, S1UsefulFlops) {
  const auto s1 = section(AlsVariant::batch_local(), devsim::k20c(), 32, "S1");
  EXPECT_DOUBLE_EQ(s1.useful_flops, 2.0 * kPairs * kOmega);  // 770
}

TEST(AccountingExact, LocalVariantTraffic) {
  const auto s1 = section(AlsVariant::batch_local(), devsim::k20c(), 32, "S1");
  // Stage: write omega*k*4 = 280 B; replay: 2*passes*omega*k*4 = 560 B.
  EXPECT_DOUBLE_EQ(s1.local_bytes, 280.0 + 560.0);
  // Cold gather: omega scattered accesses of k*4 useful bytes.
  EXPECT_DOUBLE_EQ(s1.scattered_accesses, kOmega);
  EXPECT_DOUBLE_EQ(s1.scattered_useful_bytes, kOmega * kK * 4.0);
  // CSR segment streams coalesced: omega * 8 B.
  EXPECT_DOUBLE_EQ(s1.global_bytes, kOmega * 8.0);
}

TEST(AccountingExact, UnstagedGpuPaysRereadsAndLatency) {
  const auto s1 =
      section(AlsVariant::batching_only(), devsim::k20c(), 32, "S1");
  // Rereads: 2*passes*omega - omega = 7 row-granular accesses + cold 7.
  EXPECT_DOUBLE_EQ(s1.scattered_accesses, 7.0 + 7.0);
  // Latency: 2*passes*omega*bundles*W*slots = 2*7*1*32*6 = 2688 extra ops.
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, 2240.0 + 2688.0);
}

TEST(AccountingExact, NoRegistersSpillsOnGpuOnly) {
  const auto gpu =
      section(AlsVariant::batching_only(), devsim::k20c(), 32, "S1");
  // spill = 8*k*passes*omega*bundles*W = 8*10*7*32 = 17920 B.
  EXPECT_DOUBLE_EQ(gpu.spill_bytes, 17920.0);
  EXPECT_EQ(gpu.register_demand_peak, kK * kK + 8);

  const auto gpu_reg = section(AlsVariant::from_mask(1), devsim::k20c(), 32, "S1");
  EXPECT_DOUBLE_EQ(gpu_reg.spill_bytes, 0.0);
  EXPECT_EQ(gpu_reg.register_demand_peak, kK + 8);

  const auto cpu =
      section(AlsVariant::batching_only(), devsim::xeon_e5_2670_dual(), 32, "S1");
  EXPECT_DOUBLE_EQ(cpu.spill_bytes, 0.0);  // stack arrays stay in L1
}

TEST(AccountingExact, CpuGatherOpsOnUnstaged) {
  const auto p = devsim::xeon_e5_2670_dual();
  const auto s1 = section(AlsVariant::batching_only(), p, 32, "S1");
  // Base ops: bundles(4)*W(8)*passes(1)*omega*k = 2240, plus gathers:
  // 2*passes*omega*k*gather_ops scaled by scalar_eff/flat_eff.
  const double gather = 2.0 * kOmega * kK * p.gather_scalar_ops *
                        p.scalar_efficiency / p.flat_mapping_efficiency;
  EXPECT_NEAR(s1.lane_ops_scalar, 2240.0 + gather, 1e-9);
}

TEST(AccountingExact, VectorVariantMovesS1S2ToVectorOps) {
  const auto s1 =
      section(AlsVariant::batch_vectors(), devsim::k20c(), 32, "S1");
  EXPECT_DOUBLE_EQ(s1.lane_ops_vector, 2240.0);
  // The unstaged latency ops remain scalar.
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, 2688.0);
}

TEST(AccountingExact, FlatOpsIncludeDivergencePadding) {
  // Single row in a 32-lane flat group: omega_max = omega, lanes padded to
  // the full warp on SIMT. S1 flat ops = 32 * omega * pairs * 4.
  const auto s1 =
      section(AlsVariant::flat_baseline(), devsim::k20c(), 32, "S1");
  const double base = 32.0 * kOmega * kPairs * 4.0;
  const double latency = 32.0 * kOmega * 2.0 * kPairs * 6.0;
  EXPECT_DOUBLE_EQ(s1.lane_ops_scalar, base + latency);
}

TEST(AccountingExact, TotalsEqualSumOfSections) {
  const auto total = run(AlsVariant::batch_local_reg(), devsim::k20c(), 32);
  double s = 0;
  for (const char* name : {"S1", "S2", "S3"}) {
    s += section(AlsVariant::batch_local_reg(), devsim::k20c(), 32, name)
             .lane_ops_scalar;
  }
  EXPECT_DOUBLE_EQ(total.lane_ops_scalar, s);
}

}  // namespace
}  // namespace alsmf
