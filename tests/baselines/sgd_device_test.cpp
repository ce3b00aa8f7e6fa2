#include "baselines/sgd_device.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

DeviceSgdOptions opts() {
  DeviceSgdOptions o;
  o.k = 6;
  o.epochs = 8;
  o.learning_rate = 0.02f;
  o.num_groups = 64;
  o.seed = 4;
  return o;
}

TEST(DeviceSgd, RmseDecreases) {
  const Coo train = testing::random_coo(150, 120, 0.06, 100);
  devsim::Device device(devsim::k20c());
  DeviceSgd sgd(train, opts(), device);
  EXPECT_EQ(sgd.x().rows(), 150);
  EXPECT_EQ(sgd.y().rows(), 120);
  EXPECT_EQ(sgd.x().cols(), 6);
  const double before = sgd.train_rmse();
  sgd.run();
  EXPECT_LT(sgd.train_rmse(), before);
}

TEST(DeviceSgd, FitsPlantedData) {
  SyntheticSpec spec;
  spec.users = 250;
  spec.items = 180;
  spec.nnz = 12000;
  spec.planted_rank = 3;
  spec.noise = 0.05;
  spec.integer_ratings = false;
  const Coo train = generate_synthetic(spec);
  DeviceSgdOptions o = opts();
  o.epochs = 25;
  devsim::Device device(devsim::xeon_e5_2670_dual());
  DeviceSgd sgd(train, o, device);
  sgd.run();
  EXPECT_LT(sgd.train_rmse(), 0.45);
}

TEST(DeviceSgd, OneGroupIsDeterministic) {
  // One group runs every rating in a fixed order, whatever the pool size.
  const Coo train = testing::random_coo(50, 50, 0.1, 41);
  DeviceSgdOptions o = opts();
  o.num_groups = 1;
  devsim::Device device_a(devsim::k20c());
  DeviceSgd a(train, o, device_a);
  a.run();
  devsim::Device device_b(devsim::k20c());
  DeviceSgd b(train, o, device_b);
  b.run();
  EXPECT_EQ(a.x(), b.x());
  EXPECT_EQ(a.y(), b.y());
}

TEST(DeviceSgd, ManyGroupsConvergeLikeOneGroup) {
  const Coo train = testing::random_coo(150, 100, 0.08, 42);
  DeviceSgdOptions o = opts();
  o.epochs = 10;
  o.seed = 3;
  o.num_groups = 1;
  devsim::Device device_one(devsim::k20c());
  DeviceSgd one(train, o, device_one);
  one.run();
  o.num_groups = 64;
  devsim::Device device_many(devsim::k20c());
  DeviceSgd many(train, o, device_many);
  many.run();
  // Concurrent groups perturb the trajectory but not the outcome quality.
  EXPECT_NEAR(one.train_rmse(), many.train_rmse(), 0.15);
}

TEST(DeviceSgd, ModeledTimeAccumulatesPerEpoch) {
  const Coo train = testing::random_coo(60, 60, 0.1, 101);
  devsim::Device device(devsim::k20c());
  DeviceSgd sgd(train, opts(), device);
  sgd.run_epoch();
  const double one = sgd.modeled_seconds();
  EXPECT_GT(one, 0.0);
  sgd.run_epoch();
  EXPECT_NEAR(sgd.modeled_seconds(), 2 * one, one * 0.01);
}

TEST(DeviceSgd, AccountingOnlyLeavesFactorsUntouched) {
  const Coo train = testing::random_coo(40, 40, 0.1, 102);
  DeviceSgdOptions o = opts();
  o.functional = false;
  devsim::Device device(devsim::k20c());
  DeviceSgd sgd(train, o, device);
  const Matrix x0 = sgd.x();
  sgd.run();
  EXPECT_EQ(sgd.x(), x0);
  EXPECT_GT(sgd.modeled_seconds(), 0.0);
}

TEST(DeviceSgd, SameAccountingAcrossDevicesDifferentTime) {
  const Coo train = testing::random_coo(80, 80, 0.1, 103);
  DeviceSgdOptions o = opts();
  o.functional = false;

  devsim::Device gpu(devsim::k20c());
  DeviceSgd a(train, o, gpu);
  a.run_epoch();
  devsim::Device cpu(devsim::xeon_e5_2670_dual());
  DeviceSgd b(train, o, cpu);
  b.run_epoch();

  // Identical recorded work, different modeled cost.
  EXPECT_NE(a.modeled_seconds(), b.modeled_seconds());
}

TEST(DeviceSgd, InvalidOptionsRejected) {
  const Coo train = testing::random_coo(10, 10, 0.2, 104);
  devsim::Device device(devsim::k20c());
  DeviceSgdOptions bad = opts();
  bad.k = 0;
  EXPECT_THROW(DeviceSgd(train, bad, device), Error);
  bad = opts();
  bad.learning_rate = 0.0f;
  EXPECT_THROW(DeviceSgd(train, bad, device), Error);
}

}  // namespace
}  // namespace alsmf
