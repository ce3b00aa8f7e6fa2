#include "recsys/tuning.hpp"

#include <gtest/gtest.h>

#include "als/metrics.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/reference.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

Coo planted() {
  SyntheticSpec spec;
  spec.users = 200;
  spec.items = 120;
  spec.nnz = 7000;
  spec.planted_rank = 3;
  spec.noise = 0.15;
  spec.integer_ratings = false;
  spec.seed = 180;
  return generate_synthetic(spec);
}

TEST(Tuning, EvaluatesEveryGridPointSorted) {
  TuningGrid grid;
  grid.ks = {2, 4};
  grid.lambdas = {0.05f, 0.5f};
  grid.iterations = 4;
  const TuningResult r = grid_search(planted(), grid);
  EXPECT_EQ(r.all.size(), 4u);
  for (std::size_t i = 1; i < r.all.size(); ++i) {
    EXPECT_LE(r.all[i - 1].validation_rmse, r.all[i].validation_rmse);
  }
  EXPECT_EQ(r.best.k, r.all.front().k);
  EXPECT_GT(r.best.validation_rmse, 0.0);
}

TEST(Tuning, PrefersSufficientRankOnPlantedData) {
  // Planted rank 3: k = 1 must lose to k = 6 on validation.
  TuningGrid grid;
  grid.ks = {1, 6};
  grid.lambdas = {0.05f};
  grid.iterations = 8;
  const TuningResult r = grid_search(planted(), grid);
  EXPECT_EQ(r.best.k, 6);
}

TEST(Tuning, ExtremeLambdaLoses) {
  TuningGrid grid;
  grid.ks = {4};
  grid.lambdas = {0.05f, 500.0f};  // absurd ridge underfits badly
  grid.iterations = 6;
  const TuningResult r = grid_search(planted(), grid);
  EXPECT_FLOAT_EQ(r.best.lambda, 0.05f);
}

TEST(Tuning, DeterministicInSeed) {
  TuningGrid grid;
  grid.ks = {3};
  grid.lambdas = {0.1f};
  grid.iterations = 3;
  const TuningResult a = grid_search(planted(), grid);
  const TuningResult b = grid_search(planted(), grid);
  EXPECT_DOUBLE_EQ(a.best.validation_rmse, b.best.validation_rmse);
}

TEST(Tuning, GridPointsMatchSerialOracle) {
  // Every grid point trains on the device kernels, whose factors equal the
  // serial oracle's bit for bit, so each RMSE must equal the oracle's.
  const Coo ratings = planted();
  for (bool weighted : {false, true}) {
    TuningGrid grid;
    grid.ks = {2, 5};
    grid.lambdas = {0.05f, 0.3f};
    grid.iterations = 3;
    grid.weighted_regularization = weighted;
    const TuningResult r = grid_search(ratings, grid);
    ASSERT_EQ(r.all.size(), 4u);

    const auto [train_coo, valid] =
        split_holdout(ratings, grid.validation_fraction, grid.seed);
    const Csr train = coo_to_csr(train_coo);
    for (const TuningCandidate& c : r.all) {
      AlsOptions o;
      o.k = c.k;
      o.lambda = c.lambda;
      o.iterations = grid.iterations;
      o.weighted_regularization = weighted;
      o.seed = grid.seed;
      const auto ref = reference_als(train, o);
      EXPECT_EQ(c.validation_rmse, rmse(valid, ref.x, ref.y))
          << "k=" << c.k << " lambda=" << c.lambda << " weighted=" << weighted;
      EXPECT_EQ(c.train_rmse, rmse(train, ref.x, ref.y))
          << "k=" << c.k << " lambda=" << c.lambda << " weighted=" << weighted;
    }
  }
}

TEST(Tuning, InvalidGridRejected) {
  TuningGrid empty;
  empty.ks = {};
  EXPECT_THROW(grid_search(planted(), empty), Error);
  TuningGrid bad_frac;
  bad_frac.validation_fraction = 0.0;
  EXPECT_THROW(grid_search(planted(), bad_frac), Error);
}

}  // namespace
}  // namespace alsmf
