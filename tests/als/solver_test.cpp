#include "als/solver.hpp"

#include <gtest/gtest.h>

#include "als/metrics.hpp"
#include "testing/reference.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.iterations = 4;
  o.seed = 77;
  o.num_groups = 128;
  return o;
}

TEST(Solver, FullRunMatchesReference) {
  const Csr train = testing::random_csr(70, 45, 0.15, 8);
  const AlsOptions o = opts();
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  solver.run({});
  const auto ref = reference_als(train, o);
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(Solver, LossDecreasesOverIterations) {
  const Csr train = testing::random_csr(60, 60, 0.1, 9);
  devsim::Device device(devsim::xeon_e5_2670_dual());
  AlsSolver solver(train, opts(), AlsVariant::batch_local(), device);
  double prev = solver.train_loss();
  for (int it = 0; it < 5; ++it) {
    solver.run_iteration();
    const double cur = solver.train_loss();
    EXPECT_LE(cur, prev * (1 + 1e-4)) << "iteration " << it;
    prev = cur;
  }
}

TEST(Solver, ModeledTimePositiveAndAccumulates) {
  const Csr train = testing::random_csr(50, 30, 0.2, 10);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(), AlsVariant::batching_only(), device);
  solver.run_iteration();
  const double one = solver.modeled_seconds();
  EXPECT_GT(one, 0.0);
  solver.run_iteration();
  EXPECT_NEAR(solver.modeled_seconds(), 2 * one, one * 0.01);
}

TEST(Solver, StepBreakdownSumsToTotal) {
  const Csr train = testing::random_csr(50, 30, 0.2, 11);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(), AlsVariant::batching_only(), device);
  solver.run({});
  const StepBreakdown b = solver.step_breakdown();
  EXPECT_GT(b.s1, 0.0);
  EXPECT_GT(b.s2, 0.0);
  EXPECT_GT(b.s3, 0.0);
  EXPECT_NEAR(b.s1_pct() + b.s2_pct() + b.s3_pct(), 100.0, 1e-6);
  EXPECT_NEAR(b.total(), solver.modeled_seconds(), b.total() * 0.01);
}

TEST(Solver, S1DominatesAtPaperConfig) {
  // Fig. 8: S1 (YᵀY) is the hotspot of the unoptimized batched kernel.
  const Csr train = testing::random_csr(100, 60, 0.2, 12);
  AlsOptions o = opts();
  o.k = 10;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batching_only(), device);
  solver.run({});
  const StepBreakdown b = solver.step_breakdown();
  EXPECT_GT(b.s1_pct(), b.s2_pct());
}

TEST(Solver, AccountingOnlyRunIsFast) {
  const Csr train = testing::random_csr(60, 40, 0.2, 13);
  AlsOptions o = opts();
  o.functional = false;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local(), device);
  solver.run({});
  // Factors stay at their initial values.
  EXPECT_DOUBLE_EQ(solver.x().frob2(), 0.0);
  EXPECT_GT(solver.modeled_seconds(), 0.0);
}

TEST(Solver, UpdateXOnlyTouchesX) {
  const Csr train = testing::random_csr(40, 30, 0.2, 14);
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, opts(), AlsVariant::batching_only(), device);
  const Matrix y_before = solver.y();
  solver.update_x();
  EXPECT_EQ(solver.y(), y_before);
  EXPECT_GT(solver.x().frob2(), 0.0);
}

TEST(Solver, InvalidOptionsRejected) {
  const Csr train = testing::random_csr(10, 10, 0.3, 15);
  devsim::Device device(devsim::k20c());
  AlsOptions bad_k = opts();
  bad_k.k = 0;
  EXPECT_THROW(AlsSolver(train, bad_k, AlsVariant(), device), Error);
  AlsOptions bad_lambda = opts();
  bad_lambda.lambda = 0.0f;
  EXPECT_THROW(AlsSolver(train, bad_lambda, AlsVariant(), device), Error);
}

TEST(Solver, WallSecondsNonNegative) {
  const Csr train = testing::random_csr(20, 20, 0.2, 16);
  devsim::Device device(devsim::xeon_phi_31sp());
  AlsSolver solver(train, opts(), AlsVariant::batch_vectors(), device);
  solver.run({});
  EXPECT_GE(solver.wall_seconds(), 0.0);
}

}  // namespace
}  // namespace alsmf
