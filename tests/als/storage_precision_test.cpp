// fp16/bf16 factor-storage training: every freshly solved factor block is
// rounded through the storage format (the training-side counterpart of the
// kernels the precision analyzer certifies), the trajectory hash separates
// narrow runs from fp32 checkpoints, and the quality cost stays small.
#include <gtest/gtest.h>

#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "common/halfprec.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts(StoragePrecision storage = StoragePrecision::kFp32) {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.iterations = 4;
  o.seed = 77;
  o.num_groups = 128;
  o.storage = storage;
  return o;
}

bool fp16_representable(float v) { return fp16_round_ftz(v) == v; }
bool bf16_representable(float v) { return bf16_round(v) == v; }

TEST(StoragePrecisionTraining, Fp16FactorsLandOnTheStorageGrid) {
  const Csr train = testing::random_csr(60, 40, 0.15, 8);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(StoragePrecision::kFp16),
                   AlsVariant::batch_local_reg(), device);
  solver.run({});
  for (std::size_t i = 0; i < solver.x().size(); ++i) {
    ASSERT_TRUE(fp16_representable(solver.x().data()[i])) << "x[" << i << "]";
  }
  for (std::size_t i = 0; i < solver.y().size(); ++i) {
    ASSERT_TRUE(fp16_representable(solver.y().data()[i])) << "y[" << i << "]";
  }
}

TEST(StoragePrecisionTraining, Bf16FactorsLandOnTheStorageGrid) {
  const Csr train = testing::random_csr(60, 40, 0.15, 8);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(StoragePrecision::kBf16),
                   AlsVariant::batch_local(), device);
  solver.run({});
  for (std::size_t i = 0; i < solver.x().size(); ++i) {
    ASSERT_TRUE(bf16_representable(solver.x().data()[i])) << "x[" << i << "]";
  }
}

TEST(StoragePrecisionTraining, NarrowStorageCostsLittleQuality) {
  // The headline claim the bench_regress leg pins at full scale, in
  // miniature: fp16-storage training converges to nearly the fp32 RMSE.
  const Csr train = testing::random_csr(80, 50, 0.15, 21);
  devsim::Device d32(devsim::k20c()), d16(devsim::k20c());
  AlsSolver fp32(train, opts(), AlsVariant::batch_local_reg(), d32);
  AlsSolver fp16(train, opts(StoragePrecision::kFp16),
                 AlsVariant::batch_local_reg(), d16);
  fp32.run({});
  fp16.run({});
  const double base = fp32.train_rmse();
  EXPECT_GT(fp16.train_rmse(), 0.0);
  EXPECT_LT(fp16.train_rmse(), base + 0.05);
}

TEST(StoragePrecisionTraining, Fp32PathIsBitwiseUntouched) {
  // storage=kFp32 must stay the identity: same factors as the reference.
  const Csr train = testing::random_csr(50, 30, 0.2, 10);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(), AlsVariant::batching_only(), device);
  solver.run({});
  const auto ref = reference_als(train, opts());
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(StoragePrecisionTraining, TrajectoryHashSeparatesStorageFormats) {
  const Csr train = testing::random_csr(30, 20, 0.2, 5);
  const std::uint64_t h32 = trajectory_hash(opts(), train);
  const std::uint64_t h16 =
      trajectory_hash(opts(StoragePrecision::kFp16), train);
  const std::uint64_t hbf =
      trajectory_hash(opts(StoragePrecision::kBf16), train);
  // Non-fp32 storage changes the trajectory, so its checkpoints must not
  // be loadable into an fp32 run (and vice versa)...
  EXPECT_NE(h32, h16);
  EXPECT_NE(h32, hbf);
  EXPECT_NE(h16, hbf);
  // ...while fp32 runs keep hashing exactly as pre-storage builds did
  // (the knob folds in only when it changes the trajectory).
  AlsOptions o = opts();
  o.storage = StoragePrecision::kFp32;
  EXPECT_EQ(trajectory_hash(o, train), h32);
}

}  // namespace
}  // namespace alsmf
