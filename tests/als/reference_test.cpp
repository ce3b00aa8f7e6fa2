#include "testing/reference.hpp"

#include <gtest/gtest.h>

#include "als/metrics.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts(int k = 4, int iters = 5) {
  AlsOptions o;
  o.k = k;
  o.lambda = 0.1f;
  o.iterations = iters;
  o.seed = 17;
  return o;
}

TEST(Reference, LossDecreasesMonotonically) {
  const Csr train = testing::random_csr(60, 40, 0.15, 3);
  AlsOptions o = opts();
  Matrix x, y;
  init_factors(train.rows(), train.cols(), o, x, y);
  const Csr train_t = transpose(train);

  double prev = als_loss(train, x, y, o.lambda);
  for (int it = 0; it < 8; ++it) {
    reference_half_update(train, y, x, o);
    const double after_x = als_loss(train, x, y, o.lambda);
    EXPECT_LE(after_x, prev * (1 + 1e-4)) << "X update, iter " << it;
    reference_half_update(train_t, x, y, o);
    const double after_y = als_loss(train, x, y, o.lambda);
    EXPECT_LE(after_y, after_x * (1 + 1e-4)) << "Y update, iter " << it;
    prev = after_y;
  }
}

TEST(Reference, FitsPlantedLowRankData) {
  SyntheticSpec spec;
  spec.users = 300;
  spec.items = 200;
  spec.nnz = 12000;
  spec.planted_rank = 3;
  spec.noise = 0.05;
  spec.integer_ratings = false;
  spec.seed = 2;
  const Csr train = coo_to_csr(generate_synthetic(spec));

  const auto result = reference_als(train, opts(8, 12));
  const double final_rmse = rmse(train, result.x, result.y);
  // With rank 8 >= planted rank 3 and low noise, fit must be close.
  EXPECT_LT(final_rmse, 0.25);
}

TEST(Reference, InitYIsSmallRandomXIsZero) {
  AlsOptions o = opts(6);
  Matrix x, y;
  init_factors(10, 8, o, x, y);
  EXPECT_EQ(x.rows(), 10);
  EXPECT_EQ(y.rows(), 8);
  EXPECT_DOUBLE_EQ(x.frob2(), 0.0);  // Algorithm 1 line 2
  EXPECT_GT(y.frob2(), 0.0);
  // "Small random numbers": bounded by 0.5/sqrt(k).
  for (index_t r = 0; r < y.rows(); ++r) {
    for (index_t c = 0; c < y.cols(); ++c) {
      EXPECT_LE(std::abs(y(r, c)), 0.5 / std::sqrt(6.0) + 1e-6);
    }
  }
}

TEST(Reference, DeterministicInSeed) {
  const Csr train = testing::random_csr(30, 20, 0.2, 5);
  const auto a = reference_als(train, opts());
  const auto b = reference_als(train, opts());
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST(Reference, EmptyRowsYieldZeroFactors) {
  Coo coo(5, 5);
  coo.add(0, 0, 3.0f);
  coo.add(0, 1, 4.0f);
  coo.add(2, 2, 5.0f);  // rows 1, 3, 4 empty
  const Csr train = coo_to_csr(coo);
  const auto result = reference_als(train, opts(3, 2));
  for (index_t u : {1, 3, 4}) {
    for (index_t f = 0; f < 3; ++f) {
      EXPECT_FLOAT_EQ(result.x(u, f), 0.0f) << "row " << u;
    }
  }
  // Non-empty rows must be non-zero.
  EXPECT_GT(std::abs(result.x(0, 0)) + std::abs(result.x(0, 1)) +
                std::abs(result.x(0, 2)),
            0.0f);
}

TEST(Reference, HigherLambdaShrinksFactors) {
  const Csr train = testing::random_csr(40, 30, 0.2, 7);
  AlsOptions lo = opts(4, 6);
  lo.lambda = 0.01f;
  AlsOptions hi = opts(4, 6);
  hi.lambda = 10.0f;
  const auto rlo = reference_als(train, lo);
  const auto rhi = reference_als(train, hi);
  EXPECT_LT(rhi.x.frob2(), rlo.x.frob2());
}

TEST(Reference, LuSolverGivesSameResultAsCholesky) {
  const Csr train = testing::random_csr(25, 25, 0.25, 9);
  AlsOptions chol = opts(5, 3);
  AlsOptions lu = opts(5, 3);
  lu.solver = LinearSolverKind::kLu;
  const auto a = reference_als(train, chol);
  const auto b = reference_als(train, lu);
  EXPECT_LT(max_abs_diff(a.x, b.x), 1e-2);
  EXPECT_LT(max_abs_diff(a.y, b.y), 1e-2);
}

}  // namespace
}  // namespace alsmf
