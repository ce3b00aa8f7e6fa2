// Regression net for the paper's experimental *shapes*: who wins, in what
// direction, with loose factor bands. These tests pin the device-profile
// calibration (see EXPERIMENTS.md) so later changes can't silently break
// the reproduced figures.
#include <gtest/gtest.h>

#include "als/solver.hpp"
#include "baselines/cumf_like.hpp"
#include "data/datasets.hpp"

namespace alsmf {
namespace {

AlsOptions paper_options() {
  AlsOptions o;
  o.k = 10;
  o.lambda = 0.1f;
  o.iterations = 5;
  o.num_groups = 8192;
  o.group_size = 32;
  o.functional = false;  // cost model only
  return o;
}

/// Replica scale used by the fixture; results are extrapolated to the full
/// dataset so launch-utilization artifacts of the small replica vanish.
constexpr double kReplicaScale = 256.0;

double run_variant(const Csr& train, const AlsVariant& v,
                   const devsim::DeviceProfile& p, int group_size = 32) {
  AlsOptions o = paper_options();
  o.group_size = group_size;
  devsim::Device device(p);
  AlsSolver solver(train, o, v, device);
  solver.run({});
  return device.modeled_seconds_scaled(kReplicaScale);
}

double best_time(const Csr& train, const devsim::DeviceProfile& p) {
  double best = -1;
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const double t = run_variant(train, AlsVariant::from_mask(mask), p);
    if (best < 0 || t < best) best = t;
  }
  return best;
}

class NetflixShapes : public ::testing::Test {
 protected:
  static const Csr& train() {
    static const Csr csr = make_replica("NTFX", 256.0);
    return csr;
  }
};

// Fig. 1: the flat baseline runs several times faster on the 16-core CPU
// than on the K20c.
TEST_F(NetflixShapes, Fig1FlatCpuBeatsFlatGpu) {
  const double cpu = run_variant(train(), AlsVariant::flat_baseline(),
                                 devsim::xeon_e5_2670_dual());
  const double gpu =
      run_variant(train(), AlsVariant::flat_baseline(), devsim::k20c(), 32);
  EXPECT_GT(gpu / cpu, 2.0);   // paper: 8.4x on average
  EXPECT_LT(gpu / cpu, 20.0);
}

// Fig. 7 / §V-A: ours vs the SAC'15 baseline — ~5.5x on the CPU and
// ~21.2x on the GPU (bands of roughly 2x around the paper's numbers).
TEST_F(NetflixShapes, Fig7SpeedupOverBaselineCpu) {
  const double flat = run_variant(train(), AlsVariant::flat_baseline(),
                                  devsim::xeon_e5_2670_dual());
  const double ours = best_time(train(), devsim::xeon_e5_2670_dual());
  const double speedup = flat / ours;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 14.0);
}

TEST_F(NetflixShapes, Fig7SpeedupOverBaselineGpu) {
  const double flat =
      run_variant(train(), AlsVariant::flat_baseline(), devsim::k20c(), 32);
  const double ours = best_time(train(), devsim::k20c());
  const double speedup = flat / ours;
  EXPECT_GT(speedup, 8.0);
  EXPECT_LT(speedup, 45.0);
}

// Fig. 7: ours beats the cuMF-like implementation by 2.2x-6.8x at k = 10.
TEST_F(NetflixShapes, Fig7SpeedupOverCumf) {
  AlsOptions o = paper_options();
  devsim::Device cumf_device(devsim::k20c());
  CumfLikeAls cumf(train(), o, cumf_device);
  cumf.run();
  const double cumf_time = cumf_device.modeled_seconds_scaled(kReplicaScale);
  const double ours = best_time(train(), devsim::k20c());
  const double speedup = cumf_time / ours;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 10.0);
}

// Fig. 6 (GPU): registers + local memory give up to ~2.6x over batching.
TEST_F(NetflixShapes, Fig6GpuLocalRegisters) {
  const double batch =
      run_variant(train(), AlsVariant::batching_only(), devsim::k20c());
  const double opt =
      run_variant(train(), AlsVariant::batch_local_reg(), devsim::k20c());
  EXPECT_GT(batch / opt, 1.5);
  EXPECT_LT(batch / opt, 6.0);
}

// Fig. 6 (GPU): explicit vectors bring "very little change" on SIMT.
TEST_F(NetflixShapes, Fig6GpuVectorsNeutral) {
  const double batch =
      run_variant(train(), AlsVariant::batching_only(), devsim::k20c());
  const double vec =
      run_variant(train(), AlsVariant::batch_vectors(), devsim::k20c());
  EXPECT_NEAR(vec / batch, 1.0, 0.05);
}

// Fig. 6 (CPU/MIC): local memory helps (paper: up to 1.6x / 1.4x).
TEST_F(NetflixShapes, Fig6CpuMicLocalHelps) {
  for (const char* dev : {"cpu", "mic"}) {
    const auto p = devsim::profile_by_name(dev);
    const double batch = run_variant(train(), AlsVariant::batching_only(), p);
    const double local = run_variant(train(), AlsVariant::batch_local(), p);
    EXPECT_GT(batch / local, 1.15) << dev;
    EXPECT_LT(batch / local, 5.0) << dev;
  }
}

// §V-B: combining registers with local memory degrades CPU/MIC performance.
TEST_F(NetflixShapes, Fig6CpuMicRegistersPlusLocalDegrade) {
  for (const char* dev : {"cpu", "mic"}) {
    const auto p = devsim::profile_by_name(dev);
    const double local = run_variant(train(), AlsVariant::batch_local(), p);
    const double local_reg =
        run_variant(train(), AlsVariant::batch_local_reg(), p);
    EXPECT_GT(local_reg, local * 1.3) << dev;
  }
}

// Fig. 9: with the best variant per device, the CPU wins; the GPU is a
// small factor behind; the MIC trails by the largest factor.
TEST_F(NetflixShapes, Fig9DeviceOrdering) {
  const double cpu = best_time(train(), devsim::xeon_e5_2670_dual());
  const double gpu = best_time(train(), devsim::k20c());
  const double mic = best_time(train(), devsim::xeon_phi_31sp());
  EXPECT_LT(cpu, gpu);        // CPU best (paper: GPU 1.5x slower)
  EXPECT_LT(gpu / cpu, 3.0);
  EXPECT_GT(mic / cpu, 2.0);  // paper: 4.1x slower
  EXPECT_LT(mic / cpu, 8.0);
}

// Fig. 9 note: our optimized GPU code runs ~3x faster than the OpenMP
// (flat CPU) version.
TEST_F(NetflixShapes, Fig9OptimizedGpuBeatsOpenMpBaseline) {
  const double flat_cpu = run_variant(train(), AlsVariant::flat_baseline(),
                                      devsim::xeon_e5_2670_dual());
  const double gpu = best_time(train(), devsim::k20c());
  EXPECT_GT(flat_cpu / gpu, 1.5);
}

// Fig. 10 (GPU): minimum at block size 16/32; 8 and 64 tie above it; 128
// is the worst.
TEST_F(NetflixShapes, Fig10GpuBlockSizeShape) {
  const AlsVariant v = AlsVariant::batch_local_reg();
  const double t8 = run_variant(train(), v, devsim::k20c(), 8);
  const double t16 = run_variant(train(), v, devsim::k20c(), 16);
  const double t32 = run_variant(train(), v, devsim::k20c(), 32);
  const double t64 = run_variant(train(), v, devsim::k20c(), 64);
  const double t128 = run_variant(train(), v, devsim::k20c(), 128);
  EXPECT_LT(t16, t8);
  EXPECT_LT(t32, t64);
  EXPECT_NEAR(t16 / t32, 1.0, 0.05);
  EXPECT_GT(t128, t64);
  EXPECT_GT(t8, t32);
}

// Fig. 10 (CPU): smaller block sizes are no worse (paper: "the smaller the
// block size, the better").
TEST_F(NetflixShapes, Fig10CpuSmallerNoWorse) {
  const AlsVariant v = AlsVariant::batch_local();
  const auto p = devsim::xeon_e5_2670_dual();
  const double t8 = run_variant(train(), v, p, 8);
  const double t32 = run_variant(train(), v, p, 32);
  const double t128 = run_variant(train(), v, p, 128);
  EXPECT_LE(t8, t32 * 1.05);
  EXPECT_LT(t32, t128);
}

// §V-A: the Cholesky-based S3 beats an LU-based S3 (largest effect on the
// small YMR4 dataset).
TEST(ExperimentShapes, CholeskyBeatsLuOnS3) {
  const Csr train = make_replica("YMR4", 4.0);
  AlsOptions o;
  o.k = 10;
  o.iterations = 5;
  o.functional = false;

  devsim::Device d_chol(devsim::k20c());
  o.solver = LinearSolverKind::kCholesky;
  AlsSolver chol(train, o, AlsVariant::batch_local_reg(), d_chol);
  chol.run({});

  devsim::Device d_lu(devsim::k20c());
  o.solver = LinearSolverKind::kLu;
  AlsSolver lu(train, o, AlsVariant::batch_local_reg(), d_lu);
  lu.run({});

  EXPECT_LT(chol.step_breakdown().s3, lu.step_breakdown().s3);
}

// Fig. 8 narrative: batching-only leaves S1 dominant; optimizing S1
// (local+registers) shifts the bottleneck toward S2.
TEST(ExperimentShapes, Fig8BreakdownNarrative) {
  const Csr train = make_replica("NTFX", 256.0);
  AlsOptions o;
  o.k = 10;
  o.iterations = 5;
  o.functional = false;

  devsim::Device d_batch(devsim::k20c());
  AlsSolver batch(train, o, AlsVariant::batching_only(), d_batch);
  batch.run({});
  const StepBreakdown before = batch.step_breakdown();
  EXPECT_GT(before.s1_pct(), 50.0);  // paper: ~68%

  // "Optimizing S1" = the register optimization (the local staging helps
  // S2 as well, so use the S1-only toggle for the narrative).
  devsim::Device d_opt(devsim::k20c());
  AlsSolver opt(train, o, AlsVariant::from_mask(1), d_opt);
  opt.run({});
  const StepBreakdown after = opt.step_breakdown();
  EXPECT_LT(after.s1_pct(), before.s1_pct());
  EXPECT_GT(after.s2_pct(), before.s2_pct());
}

}  // namespace
}  // namespace alsmf
