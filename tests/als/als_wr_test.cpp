// ALS-WR (weighted-lambda regularization) behaviour across reference and
// device paths, plus the run_until stopping rule.
#include <gtest/gtest.h>

#include "als/metrics.hpp"
#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions wr_opts() {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.05f;
  o.iterations = 5;
  o.seed = 3;
  o.num_groups = 128;
  o.weighted_regularization = true;
  return o;
}

TEST(AlsWr, DeviceMatchesReferenceBitwise) {
  const Csr train = testing::random_csr(60, 40, 0.15, 110);
  const AlsOptions o = wr_opts();
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  solver.run({});
  const auto ref = reference_als(train, o);
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(AlsWr, FlatAndBatchedAgree) {
  const Csr train = testing::random_csr(50, 30, 0.2, 111);
  const AlsOptions o = wr_opts();
  devsim::Device d1(devsim::k20c());
  AlsSolver batched(train, o, AlsVariant::batching_only(), d1);
  batched.run({});
  devsim::Device d2(devsim::k20c());
  AlsSolver flat(train, o, AlsVariant::flat_baseline(), d2);
  flat.run({});
  EXPECT_EQ(batched.x(), flat.x());
}

TEST(AlsWr, DiffersFromPlainAls) {
  const Csr train = testing::random_csr(50, 30, 0.2, 112);
  AlsOptions wr = wr_opts();
  AlsOptions plain = wr_opts();
  plain.weighted_regularization = false;
  const auto a = reference_als(train, wr);
  const auto b = reference_als(train, plain);
  EXPECT_NE(a.x, b.x);
}

TEST(AlsWr, WeightedLossDecreasesMonotonically) {
  const Csr train = testing::random_csr(70, 50, 0.1, 113);
  const AlsOptions o = wr_opts();
  devsim::Device device(devsim::xeon_e5_2670_dual());
  AlsSolver solver(train, o, AlsVariant::batch_local(), device);
  double prev = solver.train_loss();
  for (int it = 0; it < 5; ++it) {
    solver.run_iteration();
    const double cur = solver.train_loss();
    EXPECT_LE(cur, prev * (1 + 1e-4)) << it;
    prev = cur;
  }
}

TEST(AlsWr, ShrinksHeavyRowsMore) {
  // Weighted ridge penalizes high-degree rows harder; with a large lambda
  // the heavy row's factor norm shrinks relative to plain ALS.
  Coo coo(4, 30);
  for (index_t i = 0; i < 30; ++i) coo.add(0, i, 4.0f);  // heavy row
  coo.add(1, 0, 4.0f);                                   // light row
  coo.add(2, 5, 4.0f);
  coo.add(3, 9, 4.0f);
  const Csr train = coo_to_csr(coo);
  AlsOptions wr = wr_opts();
  wr.lambda = 1.0f;
  wr.iterations = 3;
  AlsOptions plain = wr;
  plain.weighted_regularization = false;
  const auto a = reference_als(train, wr);
  const auto b = reference_als(train, plain);
  const auto norm = [](const Matrix& m, index_t r) {
    double s = 0;
    for (auto v : m.row(r)) s += static_cast<double>(v) * v;
    return s;
  };
  EXPECT_LT(norm(a.x, 0), norm(b.x, 0));
}

TEST(RunUntil, StopsOnConvergence) {
  // Planted low-rank data: ALS converges fast (random dense noise would
  // keep grinding slowly and never hit a tight tolerance).
  SyntheticSpec spec;
  spec.users = 150;
  spec.items = 100;
  spec.nnz = 6000;
  spec.planted_rank = 3;
  spec.noise = 0.05;
  spec.seed = 114;
  const Csr train = coo_to_csr(generate_synthetic(spec));
  AlsOptions o = wr_opts();
  o.weighted_regularization = false;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  const auto report = solver.run_until(2e-2, 50);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations, 50);
  EXPECT_EQ(report.loss_per_iteration.size(),
            static_cast<std::size_t>(report.iterations));
  // Trajectory is non-increasing.
  for (std::size_t i = 1; i < report.loss_per_iteration.size(); ++i) {
    EXPECT_LE(report.loss_per_iteration[i],
              report.loss_per_iteration[i - 1] * (1 + 1e-4));
  }
}

TEST(RunUntil, RespectsIterationCap) {
  const Csr train = testing::random_csr(40, 30, 0.2, 115);
  AlsOptions o = wr_opts();
  o.weighted_regularization = false;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batching_only(), device);
  const auto report = solver.run_until(0.0, 3);  // tol 0: never converges
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 3);
}

TEST(RunUntil, RequiresFunctionalMode) {
  const Csr train = testing::random_csr(20, 20, 0.2, 116);
  AlsOptions o = wr_opts();
  o.functional = false;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batching_only(), device);
  EXPECT_THROW(solver.run_until(1e-3, 5), Error);
}

TEST(AlsWr, BetterHoldoutOnSparseTail) {
  // WR's per-row weighting typically generalizes at least as well on data
  // with many low-degree users.
  SyntheticSpec spec;
  spec.users = 500;
  spec.items = 300;
  spec.nnz = 10000;
  spec.user_alpha = 1.1;  // long tail of 1-2 rating users
  spec.planted_rank = 3;
  spec.noise = 0.2;
  spec.seed = 117;
  const Coo all = generate_synthetic(spec);
  auto [train_coo, test_coo] = split_holdout(all, 0.15, 5);
  const Csr train = coo_to_csr(train_coo);

  AlsOptions wr = wr_opts();
  wr.k = 6;
  wr.iterations = 10;
  AlsOptions plain = wr;
  plain.weighted_regularization = false;
  const auto a = reference_als(train, wr);
  const auto b = reference_als(train, plain);
  const double rmse_wr = rmse(test_coo, a.x, a.y);
  const double rmse_plain = rmse(test_coo, b.x, b.y);
  EXPECT_LT(rmse_wr, rmse_plain * 1.1);  // no worse than plain (usually better)
}

}  // namespace
}  // namespace alsmf
