#include "als/multi_device.hpp"

#include <gtest/gtest.h>

#include <string>

#include "testing/reference.hpp"
#include "data/datasets.hpp"
#include "robust/fault_injection.hpp"
#include "robust/guards.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.iterations = 3;
  o.seed = 7;
  o.num_groups = 256;
  return o;
}

TEST(MultiDevice, SingleDeviceMatchesReference) {
  const Csr train = testing::random_csr(60, 40, 0.15, 160);
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(),
                        {devsim::k20c()});
  solver.run();
  const auto ref = reference_als(train, opts());
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(MultiDevice, PartitionCountDoesNotChangeFactors) {
  const Csr train = testing::random_csr(80, 50, 0.12, 161);
  const auto ref = reference_als(train, opts());
  for (int devices : {2, 3, 4}) {
    std::vector<devsim::DeviceProfile> profiles(
        static_cast<std::size_t>(devices), devsim::k20c());
    MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(),
                          profiles);
    solver.run();
    EXPECT_EQ(solver.x(), ref.x) << devices << " devices";
    EXPECT_EQ(solver.y(), ref.y) << devices << " devices";
  }
}

TEST(MultiDevice, PartitionsCoverAllRowsDisjointly) {
  const Csr train = make_replica("YMR4", 16.0);
  std::vector<devsim::DeviceProfile> profiles(3, devsim::k20c());
  MultiDeviceAls solver(train, opts(), AlsVariant::batching_only(), profiles);
  const auto& parts = solver.row_partitions();
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts.front().first, 0);
  EXPECT_EQ(parts.back().second, train.rows());
  for (std::size_t p = 1; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].first, parts[p - 1].second);
  }
}

TEST(MultiDevice, PartitionsBalanceNonzeros) {
  const Csr train = make_replica("MVLE", 512.0);
  std::vector<devsim::DeviceProfile> profiles(4, devsim::k20c());
  MultiDeviceAls solver(train, opts(), AlsVariant::batching_only(), profiles);
  const auto& parts = solver.row_partitions();
  std::vector<nnz_t> loads;
  for (const auto& [b, e] : parts) {
    nnz_t load = 0;
    for (index_t u = b; u < e; ++u) load += train.row_nnz(u);
    loads.push_back(load);
  }
  const nnz_t mx = *std::max_element(loads.begin(), loads.end());
  const nnz_t mn = *std::min_element(loads.begin(), loads.end());
  // Contiguous prefix-sum balancing: within ~35% of each other on Zipf data.
  EXPECT_LT(static_cast<double>(mx - mn), 0.35 * static_cast<double>(mx) + 64);
}

TEST(MultiDevice, TwoDevicesFasterThanOneButNotDouble) {
  const Csr train = make_replica("MVLE", 256.0);
  AlsOptions o = opts();
  o.functional = false;

  MultiDeviceAls one(train, o, AlsVariant::batch_local_reg(), {devsim::k20c()});
  const double t1 = one.run();
  MultiDeviceAls two(train, o, AlsVariant::batch_local_reg(),
                     {devsim::k20c(), devsim::k20c()});
  const double t2 = two.run();

  EXPECT_LT(t2, t1);             // parallel speedup
  EXPECT_GT(t2, t1 / 2.0);       // but sublinear: comm + imbalance
  EXPECT_GT(two.communication_seconds(), 0.0);
}

TEST(MultiDevice, SingleDeviceHasNoCommunication) {
  const Csr train = testing::random_csr(40, 30, 0.2, 162);
  AlsOptions o = opts();
  o.functional = false;
  MultiDeviceAls solver(train, o, AlsVariant::batching_only(), {devsim::k20c()});
  solver.run();
  EXPECT_DOUBLE_EQ(solver.communication_seconds(), 0.0);
}

TEST(MultiDevice, HeterogeneousDevicesWork) {
  const Csr train = testing::random_csr(50, 40, 0.15, 163);
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local(),
                        {devsim::k20c(), devsim::xeon_e5_2670_dual()});
  solver.run();
  const auto ref = reference_als(train, opts());
  EXPECT_EQ(solver.x(), ref.x);
}

TEST(MultiDevice, EmptyProfileListRejected) {
  const Csr train = testing::random_csr(10, 10, 0.3, 164);
  EXPECT_THROW(
      MultiDeviceAls(train, opts(), AlsVariant::batching_only(), {}),
      Error);
}

TEST(MultiDevice, OptionsValidatedLikeAlsSolver) {
  // Invalid values throw as in AlsSolver; narrow storage, which this
  // trainer does not run but trajectory_hash covers, is refused by name
  // instead of being ignored.
  const Csr train = testing::random_csr(10, 10, 0.3, 165);
  const auto expect_rejected = [&](const AlsOptions& o,
                                   const std::string& field) {
    try {
      MultiDeviceAls(train, o, AlsVariant::batching_only(), {devsim::k20c()});
      ADD_FAILURE() << field << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  AlsOptions bad = opts();
  bad.lambda = -1.0f;
  expect_rejected(bad, "lambda");
  bad = opts();
  bad.storage = StoragePrecision::kFp16;
  expect_rejected(bad, "storage");
}

void expect_partition_invariants(
    const std::vector<std::pair<index_t, index_t>>& parts, index_t rows) {
  ASSERT_FALSE(parts.empty());
  EXPECT_EQ(parts.front().first, 0);
  EXPECT_EQ(parts.back().second, rows);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    EXPECT_LT(parts[p].first, parts[p].second) << "empty partition " << p;
    if (p > 0) {
      EXPECT_EQ(parts[p].first, parts[p - 1].second);
    }
  }
}

TEST(MultiDevice, BalanceSinglePartition) {
  const Csr m = testing::random_csr(20, 10, 0.3, 166);
  const auto parts = balance_by_nnz(m, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (std::pair<index_t, index_t>{0, 20}));
}

TEST(MultiDevice, BalancePartsEqualToRows) {
  const Csr m = testing::random_csr(6, 8, 0.5, 167);
  const auto parts = balance_by_nnz(m, 6);
  ASSERT_EQ(parts.size(), 6u);  // one row each, all non-empty
  expect_partition_invariants(parts, 6);
}

TEST(MultiDevice, BalancePartsExceedingRowsClampsToRowCount) {
  const Csr m = testing::random_csr(6, 8, 0.5, 168);
  for (std::size_t parts_requested : {7u, 16u, 100u}) {
    const auto parts = balance_by_nnz(m, parts_requested);
    EXPECT_EQ(parts.size(), 6u) << parts_requested << " requested";
    expect_partition_invariants(parts, 6);
  }
}

TEST(MultiDevice, BalanceSingleHotRowProducesNoEmptyShards) {
  // All the mass in one row used to absorb every partition goal, leaving
  // empty ranges; now each partition still takes at least one row.
  Coo coo(8, 50);
  for (index_t c = 0; c < 50; ++c) coo.add(3, c, 1.0f);
  for (index_t r = 0; r < 8; ++r) {
    if (r != 3) coo.add(r, r, 1.0f);
  }
  const Csr m = coo_to_csr(coo);
  for (std::size_t p : {2u, 3u, 4u, 8u}) {
    const auto parts = balance_by_nnz(m, p);
    EXPECT_EQ(parts.size(), p);
    expect_partition_invariants(parts, 8);
  }
}

TEST(MultiDevice, BalanceZeroRows) {
  const Csr empty;
  const auto parts = balance_by_nnz(empty, 4);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (std::pair<index_t, index_t>{0, 0}));
}

TEST(MultiDevice, SolveFaultsAreRepairedLikeAlsSolver) {
  // Both trainers sweep every functional half-update for NaN/Inf rows. An
  // injected solve fault poisons one row; the guard re-solves it at the
  // original damping, so an exact (cholesky) run ends bitwise equal to the
  // fault-free AlsSolver, and a subspace run, which the guard re-solves
  // exactly instead of iteratively, ends with every row finite.
  const Csr train = testing::random_csr(40, 30, 0.2, 166);
  AlsOptions o = opts();
  o.k = 4;
  devsim::Device device(devsim::k20c());
  AlsSolver clean(train, o, AlsVariant::batch_local_reg(), device);
  clean.run({});

  for (RowSolverKind kind :
       {RowSolverKind::kCholesky, RowSolverKind::kSubspace}) {
    o.row_solver = kind;
    robust::FaultPlan plan;
    plan.seed = testing::fault_seed();
    plan.probability[static_cast<int>(robust::FaultSite::kSolve)] = 0.25;
    robust::ScopedFaultInjector scoped(plan);
    MultiDeviceAls solver(
        train, o, AlsVariant::batch_local_reg(),
        std::vector<devsim::DeviceProfile>(3, devsim::k20c()));
    solver.run();
    const auto fired = scoped.injector().triggered(robust::FaultSite::kSolve);
    ASSERT_GT(fired, 0u) << to_string(kind);
    EXPECT_TRUE(robust::nonfinite_rows(solver.x()).empty()) << to_string(kind);
    EXPECT_TRUE(robust::nonfinite_rows(solver.y()).empty()) << to_string(kind);
    if (kind == RowSolverKind::kCholesky) {
      EXPECT_EQ(solver.robustness_report().nonfinite_rows, fired);
      EXPECT_EQ(solver.x(), clean.x());
      EXPECT_EQ(solver.y(), clean.y());
    }
  }
}

TEST(MultiDevice, SkewedTrainingStillMatchesReference) {
  // End to end through the coordinator: hot-row skew with more devices than
  // useful partitions still trains to the exact reference factors.
  Coo coo(10, 40);
  for (index_t c = 0; c < 40; ++c) coo.add(0, c, 2.0f);
  for (index_t r = 1; r < 10; ++r) coo.add(r, r, 1.0f);
  const Csr train = coo_to_csr(coo);
  const auto ref = reference_als(train, opts());
  std::vector<devsim::DeviceProfile> profiles(5, devsim::k20c());
  MultiDeviceAls solver(train, opts(), AlsVariant::batching_only(), profiles);
  solver.run();
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(MultiDevice, MoreDevicesThanRows) {
  const Csr train = testing::random_csr(3, 5, 0.5, 165);
  std::vector<devsim::DeviceProfile> profiles(6, devsim::k20c());
  MultiDeviceAls solver(train, opts(), AlsVariant::batching_only(), profiles);
  solver.run();
  const auto ref = reference_als(train, opts());
  EXPECT_EQ(solver.x(), ref.x);
}

}  // namespace
}  // namespace alsmf
