#include "robust/fault_injection.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "als/solver.hpp"
#include "testing/util.hpp"

namespace alsmf::robust {
namespace {

// CI's fault-injection smoke job sweeps this over several seeds; every
// recovery property below must hold for any seed.
TEST(FaultInjection, DecisionsDependOnlyOnSeedAndOccurrence) {
  FaultPlan plan;
  plan.seed = 123;
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 0.5;
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_fault(FaultSite::kSolve),
              b.should_fault(FaultSite::kSolve))
        << "occurrence " << i;
  }
  EXPECT_EQ(a.triggered(FaultSite::kSolve), b.triggered(FaultSite::kSolve));
  EXPECT_EQ(a.occurrences(FaultSite::kSolve), 1000u);
}

TEST(FaultInjection, ExactOccurrenceIndicesFire) {
  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kKernelLaunch)] = {2, 5};
  FaultInjector injector(plan);
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    if (injector.should_fault(FaultSite::kKernelLaunch)) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 5}));
  EXPECT_EQ(injector.triggered(FaultSite::kKernelLaunch), 2u);
}

TEST(FaultInjection, SitesHaveIndependentCounters) {
  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kSolve)] = {0};
  FaultInjector injector(plan);
  // Occurrences at other sites must not consume kSolve's index 0.
  EXPECT_FALSE(injector.should_fault(FaultSite::kKernelLaunch));
  EXPECT_FALSE(injector.should_fault(FaultSite::kIoRead));
  EXPECT_TRUE(injector.should_fault(FaultSite::kSolve));
}

TEST(FaultInjection, BudgetCapsTotalFaults) {
  FaultPlan plan;
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 1.0;
  plan.max_faults = 3;
  FaultInjector injector(plan);
  for (int i = 0; i < 10; ++i) injector.should_fault(FaultSite::kSolve);
  EXPECT_EQ(injector.triggered(FaultSite::kSolve), 3u);
  EXPECT_EQ(injector.total_triggered(), 3u);
}

TEST(FaultInjection, ProbabilityIsRoughlyRespected) {
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 0.3;
  FaultInjector injector(plan);
  for (int i = 0; i < 2000; ++i) injector.should_fault(FaultSite::kSolve);
  const auto hits = injector.triggered(FaultSite::kSolve);
  // 0.3 * 2000 = 600; a counter-based hash is far inside ±150 at n=2000.
  EXPECT_GT(hits, 450u);
  EXPECT_LT(hits, 750u);
}

TEST(FaultInjection, NoInjectorMeansNoFaults) {
  ASSERT_EQ(installed_fault_injector(), nullptr);
  EXPECT_FALSE(fault_at(FaultSite::kKernelLaunch));
  EXPECT_FALSE(fault_at(FaultSite::kSolve));
}

TEST(FaultInjection, ScopedInstallAndUninstall) {
  {
    ScopedFaultInjector scoped(FaultPlan{});
    EXPECT_EQ(installed_fault_injector(), &scoped.injector());
  }
  EXPECT_EQ(installed_fault_injector(), nullptr);
}

TEST(FaultInjection, KeyedDecisionsDependOnlyOnSeedSiteAndKey) {
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kDeviceFailure)] = 0.5;
  FaultInjector a(plan), b(plan);
  // Same keys queried in opposite orders: decisions must agree pairwise —
  // the property that makes concurrent coordinator threads replayable.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t dev = 0; dev < 4; ++dev) {
    for (std::uint64_t occ = 0; occ < 50; ++occ) {
      keys.push_back(fault_key(dev, occ));
    }
  }
  std::vector<bool> forward;
  for (const auto key : keys) {
    forward.push_back(a.should_fault_keyed(FaultSite::kDeviceFailure, key));
  }
  for (std::size_t i = keys.size(); i > 0; --i) {
    EXPECT_EQ(b.should_fault_keyed(FaultSite::kDeviceFailure, keys[i - 1]),
              static_cast<bool>(forward[i - 1]));
  }
  EXPECT_EQ(a.triggered(FaultSite::kDeviceFailure),
            b.triggered(FaultSite::kDeviceFailure));
}

TEST(FaultInjection, KeyedExactEntriesMatchTheKey) {
  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kStraggler)] = {fault_key(2, 1)};
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.should_fault_keyed(FaultSite::kStraggler,
                                           fault_key(2, 0)));
  EXPECT_FALSE(injector.should_fault_keyed(FaultSite::kStraggler,
                                           fault_key(1, 1)));
  EXPECT_TRUE(injector.should_fault_keyed(FaultSite::kStraggler,
                                          fault_key(2, 1)));
  EXPECT_EQ(injector.occurrences(FaultSite::kStraggler), 3u);
  EXPECT_EQ(injector.triggered(FaultSite::kStraggler), 1u);
}

TEST(FaultInjection, SuppressedAccountsForBudgetWithheldFaults) {
  FaultPlan plan;
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 1.0;
  plan.max_faults = 3;
  FaultInjector injector(plan);
  for (int i = 0; i < 10; ++i) injector.should_fault(FaultSite::kSolve);
  EXPECT_EQ(injector.triggered(FaultSite::kSolve), 3u);
  EXPECT_EQ(injector.suppressed(FaultSite::kSolve), 7u);
  // The conservation invariant the metrics exposition gates on.
  EXPECT_EQ(injector.injected(FaultSite::kSolve),
            injector.triggered(FaultSite::kSolve) +
                injector.suppressed(FaultSite::kSolve));
  EXPECT_EQ(injector.injected(FaultSite::kSolve), 10u);
}

TEST(FaultInjection, UniformKeyedIsDeterministicAndInRange) {
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  FaultInjector a(plan), b(plan);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const double u = a.uniform_keyed(FaultSite::kStraggler, key, 1);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_DOUBLE_EQ(u, b.uniform_keyed(FaultSite::kStraggler, key, 1));
    // Distinct salts give distinct streams (severity vs decision).
    EXPECT_NE(u, a.uniform_keyed(FaultSite::kStraggler, key, 2));
  }
  // uniform_keyed never advances occurrence counters.
  EXPECT_EQ(a.occurrences(FaultSite::kStraggler), 0u);
}

TEST(FaultInjection, SolveFaultsAreRecoveredByGuards) {
  const Csr train = testing::random_csr(40, 30, 0.2, 17);
  AlsOptions o;
  o.k = 4;
  o.lambda = 0.1f;
  o.iterations = 3;
  o.seed = 5;
  o.num_groups = 64;

  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 0.25;
  ScopedFaultInjector scoped(plan);

  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  solver.run({});

  const auto& injector = scoped.injector();
  const auto faults = injector.triggered(FaultSite::kSolve);
  ASSERT_GT(faults, 0u) << "plan injected nothing; test is vacuous";

  // Every poisoned row was caught by the sweep and repaired or zeroed.
  const auto& report = solver.robustness_report();
  EXPECT_EQ(report.nonfinite_rows, faults);
  EXPECT_EQ(report.redamped_rows + report.zeroed_rows, report.nonfinite_rows);
  EXPECT_TRUE(nonfinite_rows(solver.x()).empty());
  EXPECT_TRUE(nonfinite_rows(solver.y()).empty());
}

TEST(FaultInjection, GuardRecoveryIsBitwiseExactForTransientFaults) {
  // A transient NaN solve re-solved by the guard at the original damping
  // must reproduce the fault-free factors bit for bit.
  const Csr train = testing::random_csr(35, 25, 0.2, 23);
  AlsOptions o;
  o.k = 4;
  o.lambda = 0.1f;
  o.iterations = 2;
  o.seed = 7;
  o.num_groups = 64;

  devsim::Device clean_device(devsim::k20c());
  AlsSolver clean(train, o, AlsVariant::batch_local_reg(), clean_device);
  clean.run({});

  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kSolve)] = 0.2;
  ScopedFaultInjector scoped(plan);
  devsim::Device faulty_device(devsim::k20c());
  AlsSolver faulty(train, o, AlsVariant::batch_local_reg(), faulty_device);
  faulty.run({});

  ASSERT_GT(scoped.injector().triggered(FaultSite::kSolve), 0u);
  EXPECT_EQ(faulty.robustness_report().zeroed_rows, 0u);
  EXPECT_EQ(faulty.x(), clean.x());
  EXPECT_EQ(faulty.y(), clean.y());
}

TEST(FaultInjection, KernelLaunchFaultIsRetriedTransparently) {
  const Csr train = testing::random_csr(30, 20, 0.2, 31);
  AlsOptions o;
  o.k = 4;
  o.iterations = 2;
  o.seed = 3;
  o.num_groups = 64;
  ASSERT_EQ(kKernelLaunchRetries, 1);

  devsim::Device clean_device(devsim::k20c());
  AlsSolver clean(train, o, AlsVariant::batch_local_reg(), clean_device);
  clean.run({});

  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kKernelLaunch)] = {0, 3};
  ScopedFaultInjector scoped(plan);
  devsim::Device faulty_device(devsim::k20c());
  AlsSolver faulty(train, o, AlsVariant::batch_local_reg(), faulty_device);
  faulty.run({});

  EXPECT_EQ(faulty.robustness_report().kernel_relaunches, 2u);
  EXPECT_EQ(faulty.x(), clean.x());
  EXPECT_EQ(faulty.y(), clean.y());
}

TEST(FaultInjection, LaunchConfigurationErrorIsNotRetried) {
  // Only an injected launch fault is transient. A launch that does not fit
  // (k = 100 subspace rows overflow the K20c's 48 KiB scratch-pad) fails
  // the same way every time, so it escapes at once with its own message.
  const Csr train = testing::random_csr(300, 200, 0.1, 17);
  AlsOptions o;
  o.k = 100;
  o.iterations = 1;
  o.row_solver = RowSolverKind::kSubspace;
  o.functional = false;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::from_mask(1), device);  // batch+reg
  try {
    solver.run({});
    ADD_FAILURE() << "the launch fitted the scratch-pad";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'solve_scratch'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(solver.robustness_report().kernel_relaunches, 0u);
}

TEST(FaultInjection, BackToBackKernelFaultsExhaustRetriesAndThrow) {
  const Csr train = testing::random_csr(30, 20, 0.2, 31);
  AlsOptions o;
  o.k = 4;
  o.iterations = 2;
  o.num_groups = 64;

  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kKernelLaunch)] = {0, 1};
  ScopedFaultInjector scoped(plan);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  EXPECT_THROW(solver.run({}), Error);
}

}  // namespace
}  // namespace alsmf::robust
