#include "devsim/faults.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "testing/util.hpp"

namespace alsmf::devsim {
namespace {

using robust::FaultPlan;
using robust::FaultSite;
using robust::ScopedFaultInjector;
using robust::fault_key;

TEST(FaultModel, NoInjectorMeansHealthyFleet) {
  ASSERT_EQ(robust::installed_fault_injector(), nullptr);
  FaultModel model(4);
  for (std::size_t d = 0; d < 4; ++d) {
    for (int i = 0; i < 10; ++i) {
      const auto fault = model.on_launch(d);
      EXPECT_FALSE(fault.device_lost);
      EXPECT_DOUBLE_EQ(fault.slowdown, 1.0);
      EXPECT_FALSE(model.on_transfer_attempt(d));
    }
  }
  EXPECT_EQ(model.launch_occurrences(0), 10u);
  EXPECT_EQ(model.transfer_occurrences(3), 10u);
}

TEST(FaultModel, ValidatesConstruction) {
  EXPECT_THROW(FaultModel(0), Error);
  FaultModelOptions bad;
  bad.straggler_slowdown_min = 2.0;
  bad.straggler_slowdown_max = 1.5;
  EXPECT_THROW(FaultModel(2, bad), Error);
  FaultModelOptions below_one;
  below_one.straggler_slowdown_min = 0.5;
  EXPECT_THROW(FaultModel(2, below_one), Error);
}

TEST(FaultModel, DecisionsIndependentOfDeviceInterleaving) {
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kDeviceFailure)] = 0.1;
  plan.probability[static_cast<int>(FaultSite::kStraggler)] = 0.4;
  plan.probability[static_cast<int>(FaultSite::kLinkTransfer)] = 0.3;

  // Query device-major, then interleaved: every (device, occurrence) pair
  // must resolve identically regardless of global ordering.
  constexpr std::size_t kDevices = 3;
  constexpr int kOccurrences = 50;
  std::vector<std::vector<LaunchFault>> ordered(kDevices);
  std::vector<std::vector<bool>> ordered_xfer(kDevices);
  {
    ScopedFaultInjector scoped(plan);
    FaultModel model(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      for (int i = 0; i < kOccurrences; ++i) {
        ordered[d].push_back(model.on_launch(d));
        ordered_xfer[d].push_back(model.on_transfer_attempt(d));
      }
    }
  }
  {
    ScopedFaultInjector scoped(plan);
    FaultModel model(kDevices);
    for (int i = 0; i < kOccurrences; ++i) {
      for (std::size_t d_ = kDevices; d_ > 0; --d_) {  // reversed order
        const std::size_t d = d_ - 1;
        const auto fault = model.on_launch(d);
        EXPECT_EQ(fault.device_lost, ordered[d][i].device_lost);
        EXPECT_DOUBLE_EQ(fault.slowdown, ordered[d][i].slowdown);
        EXPECT_EQ(model.on_transfer_attempt(d),
                  static_cast<bool>(ordered_xfer[d][i]));
      }
    }
  }
}

TEST(FaultModel, ExactKeyKillsOneDeviceLaunch) {
  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {fault_key(1, 2)};
  ScopedFaultInjector scoped(plan);
  FaultModel model(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(model.on_launch(0).device_lost);
    const bool lost = model.on_launch(1).device_lost;
    EXPECT_EQ(lost, i == 2) << "occurrence " << i;
    EXPECT_FALSE(model.on_launch(2).device_lost);
  }
}

TEST(FaultModel, StragglerSlowdownStaysInRangeAndReplays) {
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kStraggler)] = 1.0;
  FaultModelOptions options;
  options.straggler_slowdown_min = 4.0;
  options.straggler_slowdown_max = 16.0;

  std::vector<double> first;
  {
    ScopedFaultInjector scoped(plan);
    FaultModel model(2, options);
    for (int i = 0; i < 40; ++i) {
      const auto fault = model.on_launch(i % 2);
      ASSERT_FALSE(fault.device_lost);
      EXPECT_GE(fault.slowdown, options.straggler_slowdown_min);
      EXPECT_LT(fault.slowdown, options.straggler_slowdown_max);
      first.push_back(fault.slowdown);
    }
  }
  // Severities replay bit-for-bit from the seed.
  {
    ScopedFaultInjector scoped(plan);
    FaultModel model(2, options);
    for (int i = 0; i < 40; ++i) {
      EXPECT_DOUBLE_EQ(model.on_launch(i % 2).slowdown,
                       first[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(FaultModel, DeviceFailureWinsOverStraggler) {
  FaultPlan plan;
  plan.probability[static_cast<int>(FaultSite::kDeviceFailure)] = 1.0;
  plan.probability[static_cast<int>(FaultSite::kStraggler)] = 1.0;
  ScopedFaultInjector scoped(plan);
  FaultModel model(1);
  const auto fault = model.on_launch(0);
  EXPECT_TRUE(fault.device_lost);
  EXPECT_DOUBLE_EQ(fault.slowdown, 1.0);  // a dead device never runs slow
}

}  // namespace
}  // namespace alsmf::devsim
