#include "recsys/bias.hpp"

#include <gtest/gtest.h>

#include "als/metrics.hpp"
#include "testing/reference.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

TEST(Bias, GlobalMeanOfConstantMatrix) {
  Coo coo(4, 4);
  for (index_t u = 0; u < 4; ++u) coo.add(u, u, 3.0f);
  const BiasModel model = BiasModel::fit(coo_to_csr(coo));
  EXPECT_FLOAT_EQ(model.global_mean(), 3.0f);
  // Constant ratings: biases shrink to ~0, prediction ~= mean.
  EXPECT_NEAR(model.predict(0, 0), 3.0f, 0.05);
}

TEST(Bias, CapturesGenerousUser) {
  // User 0 rates everything 5, user 1 rates everything 1 (same items).
  Coo coo(2, 20);
  for (index_t i = 0; i < 20; ++i) {
    coo.add(0, i, 5.0f);
    coo.add(1, i, 1.0f);
  }
  const BiasModel model = BiasModel::fit(coo_to_csr(coo));
  EXPECT_GT(model.user_bias(0), 0.5f);
  EXPECT_LT(model.user_bias(1), -0.5f);
  EXPECT_GT(model.predict(0, 3), model.predict(1, 3) + 1.0f);
}

TEST(Bias, CapturesPopularItem) {
  // Item 0 always gets 5, item 1 always 1, across many users.
  Coo coo(30, 2);
  for (index_t u = 0; u < 30; ++u) {
    coo.add(u, 0, 5.0f);
    coo.add(u, 1, 1.0f);
  }
  const BiasModel model = BiasModel::fit(coo_to_csr(coo));
  EXPECT_GT(model.item_bias(0), 0.5f);
  EXPECT_LT(model.item_bias(1), -0.5f);
}

TEST(Bias, ShrinkagePullsSparseBiasesToZero) {
  // A user with a single 5-star rating: strong shrinkage keeps the bias small.
  Coo coo(2, 10);
  coo.add(0, 0, 5.0f);
  for (index_t i = 0; i < 10; ++i) coo.add(1, i, 3.0f);
  BiasOptions strong;
  strong.user_shrinkage = 100.0f;
  const BiasModel model = BiasModel::fit(coo_to_csr(coo), strong);
  EXPECT_LT(std::abs(model.user_bias(0)), 0.1f);
}

TEST(Bias, ResidualsHaveNearZeroMean) {
  const Csr ratings = testing::random_csr(80, 60, 0.1, 210);
  const BiasModel model = BiasModel::fit(ratings);
  const Csr res = model.residuals(ratings);
  double sum = 0;
  for (index_t u = 0; u < res.rows(); ++u) {
    for (real v : res.row_values(u)) sum += v;
  }
  EXPECT_NEAR(sum / static_cast<double>(res.nnz()), 0.0, 0.05);
  // Structure unchanged.
  EXPECT_EQ(res.row_ptr(), ratings.row_ptr());
  EXPECT_EQ(res.col_idx(), ratings.col_idx());
}

/// Ratings with genuine per-user and per-item offsets (the structure the
/// bias model exists to capture): r = 3 + b_u + b_i + noise.
Coo biased_ratings(index_t users, index_t items, nnz_t nnz,
                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> bu(static_cast<std::size_t>(users));
  std::vector<real> bi(static_cast<std::size_t>(items));
  for (auto& b : bu) b = static_cast<real>(rng.normal(0.0, 0.6));
  for (auto& b : bi) b = static_cast<real>(rng.normal(0.0, 0.4));
  Coo coo(users, items);
  for (nnz_t n = 0; n < nnz; ++n) {
    const auto u = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(users)));
    const auto i = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(items)));
    const double r = 3.0 + bu[static_cast<std::size_t>(u)] +
                     bi[static_cast<std::size_t>(i)] + rng.normal(0.0, 0.3);
    coo.add(u, i, static_cast<real>(std::clamp(r, 1.0, 5.0)));
  }
  coo.canonicalize();
  return coo;
}

TEST(Bias, BaselineBeatsGlobalMeanOnHeldout) {
  const Coo all = biased_ratings(400, 200, 12000, 211);
  auto [train_coo, test_coo] = split_holdout(all, 0.15, 3);
  const Csr train = coo_to_csr(train_coo);
  Coo test_sized(train.rows(), train.cols());
  for (const auto& t : test_coo.entries()) test_sized.add(t.row, t.col, t.value);
  const Csr test = coo_to_csr(test_sized);

  const BiasModel model = BiasModel::fit(train);
  // Global-mean-only RMSE:
  double sse = 0;
  for (index_t u = 0; u < test.rows(); ++u) {
    for (real v : test.row_values(u)) {
      const double e = v - model.global_mean();
      sse += e * e;
    }
  }
  const double mean_rmse = std::sqrt(sse / static_cast<double>(test.nnz()));
  EXPECT_LT(model.rmse_on(test), mean_rmse * 0.85);
}

TEST(Bias, ResidualFactorizationImprovesAccuracy) {
  // On data with real bias structure, ALS on bias-removed residuals plus
  // the baseline beats ALS on the raw ratings.
  const Coo all = biased_ratings(300, 150, 9000, 212);
  auto [train_coo, test_coo] = split_holdout(all, 0.15, 7);
  const Csr train = coo_to_csr(train_coo);

  AlsOptions o;
  o.k = 4;
  o.lambda = 0.3f;
  o.iterations = 10;

  // Raw ALS.
  const auto raw = reference_als(train, o);
  const double raw_rmse = rmse(test_coo, raw.x, raw.y);

  // Bias + residual ALS.
  const BiasModel bias = BiasModel::fit(train);
  const auto res_model = reference_als(bias.residuals(train), o);
  double sse = 0;
  for (const auto& t : test_coo.entries()) {
    real pred = bias.predict(t.row, t.col);
    for (int f = 0; f < o.k; ++f) {
      pred += res_model.x(t.row, f) * res_model.y(t.col, f);
    }
    sse += (t.value - pred) * (t.value - pred);
  }
  const double combined_rmse =
      std::sqrt(sse / static_cast<double>(test_coo.nnz()));
  EXPECT_LT(combined_rmse, raw_rmse);
}

TEST(Bias, BoundsChecked) {
  const BiasModel model = BiasModel::fit(testing::random_csr(5, 5, 0.4, 213));
  EXPECT_THROW(model.predict(5, 0), Error);
  EXPECT_THROW(model.predict(0, 5), Error);
  const Csr wrong = testing::random_csr(6, 5, 0.4, 214);
  EXPECT_THROW(model.residuals(wrong), Error);
}

TEST(Bias, EmptyMatrix) {
  const BiasModel model = BiasModel::fit(coo_to_csr(Coo(3, 3)));
  EXPECT_FLOAT_EQ(model.global_mean(), 0.0f);
  EXPECT_FLOAT_EQ(model.predict(0, 0), 0.0f);
}

}  // namespace
}  // namespace alsmf
