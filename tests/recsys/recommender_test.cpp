#include "recsys/recommender.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 6;
  o.lambda = 0.1f;
  o.iterations = 8;
  o.seed = 5;
  o.num_groups = 128;
  return o;
}

Csr planted_train() {
  SyntheticSpec spec;
  spec.users = 200;
  spec.items = 150;
  spec.nnz = 8000;
  spec.planted_rank = 3;
  spec.noise = 0.1;
  spec.seed = 61;
  return coo_to_csr(generate_synthetic(spec));
}

TEST(Recommender, TrainReportsMetrics) {
  Recommender rec;
  const auto report =
      rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  EXPECT_TRUE(rec.trained());
  EXPECT_GT(report.modeled_seconds, 0.0);
  EXPECT_GT(report.train_rmse, 0.0);
  EXPECT_LT(report.train_rmse, 1.0);
  EXPECT_EQ(report.device, "2 x Xeon E5-2670");
  EXPECT_EQ(rec.users(), 200);
  EXPECT_EQ(rec.items(), 150);
  EXPECT_EQ(rec.k(), 6);
}

TEST(Recommender, SameFactorsOnEveryDevice) {
  const Csr train = planted_train();
  Recommender a, b, c;
  const AlsVariant v = AlsVariant::batch_local();
  a.train(train, opts(), devsim::k20c(), v);
  b.train(train, opts(), devsim::xeon_e5_2670_dual(), v);
  c.train(train, opts(), devsim::xeon_phi_31sp(), v);
  EXPECT_EQ(a.user_factors(), b.user_factors());
  EXPECT_EQ(b.user_factors(), c.user_factors());
}

TEST(Recommender, AutoTrainMatchesExplicitVariantBitwise) {
  // The auto overload may pick any variant, group size and tile; none of
  // them changes the arithmetic.
  const Csr train = planted_train();
  Recommender selected, fixed;
  selected.train(train, opts(), devsim::k20c());
  fixed.train(train, opts(), devsim::k20c(), AlsVariant::batch_local_reg());
  EXPECT_EQ(selected.user_factors(), fixed.user_factors());
  EXPECT_EQ(selected.item_factors(), fixed.item_factors());
}

TEST(Recommender, PredictBeforeTrainThrows) {
  Recommender rec;
  EXPECT_THROW(rec.predict(0, 0), Error);
  EXPECT_THROW(rec.recommend(0, 3), Error);
}

TEST(Recommender, PredictBoundsChecked) {
  Recommender rec;
  rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  EXPECT_THROW(rec.predict(200, 0), Error);
  EXPECT_THROW(rec.predict(0, 150), Error);
  EXPECT_NO_THROW(rec.predict(199, 149));
}

TEST(Recommender, RecommendSortedDescendingAndSized) {
  Recommender rec;
  rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  const auto recs = rec.recommend(3, 10);
  ASSERT_EQ(recs.size(), 10u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].score, recs[i].score);
  }
}

TEST(Recommender, RecommendTopItemIsArgmax) {
  Recommender rec;
  rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  const auto recs = rec.recommend(7, 1);
  ASSERT_EQ(recs.size(), 1u);
  for (index_t i = 0; i < rec.items(); ++i) {
    EXPECT_LE(rec.predict(7, i), recs[0].score + 1e-5);
  }
}

TEST(Recommender, RecommendExcludesRatedItems) {
  const Csr train = planted_train();
  Recommender rec;
  rec.train(train, opts(), devsim::xeon_e5_2670_dual());
  // Pick a user with several ratings.
  index_t user = 0;
  for (index_t u = 0; u < train.rows(); ++u) {
    if (train.row_nnz(u) >= 5) {
      user = u;
      break;
    }
  }
  const auto recs = rec.recommend(user, 20, &train);
  auto rated = train.row_cols(user);
  for (const auto& r : recs) {
    for (auto item : rated) EXPECT_NE(r.item, item);
  }
}

TEST(Recommender, RecommendMoreThanItemsClamps) {
  Recommender rec;
  rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  const auto recs = rec.recommend(0, 10000);
  EXPECT_EQ(recs.size(), static_cast<std::size_t>(rec.items()));
}

TEST(Recommender, SaveLoadRoundTrip) {
  Recommender rec;
  rec.train(planted_train(), opts(), devsim::xeon_e5_2670_dual());
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  rec.save(s);
  Recommender back = Recommender::load(s);
  EXPECT_EQ(back.user_factors(), rec.user_factors());
  EXPECT_EQ(back.item_factors(), rec.item_factors());
  EXPECT_FLOAT_EQ(back.predict(3, 4), rec.predict(3, 4));
}

TEST(Recommender, LoadRejectsGarbage) {
  std::stringstream s;
  s << "not a model";
  EXPECT_THROW(Recommender::load(s), Error);
}

TEST(Recommender, TestRmseReasonableOnHoldout) {
  SyntheticSpec spec;
  spec.users = 400;
  spec.items = 250;
  spec.nnz = 20000;
  spec.planted_rank = 3;
  spec.noise = 0.2;
  spec.seed = 62;
  const Coo all = generate_synthetic(spec);
  auto [train, test] = split_holdout(all, 0.1, 9);
  Recommender rec;
  rec.train(coo_to_csr(train), opts(), devsim::xeon_e5_2670_dual());
  // Planted data: holdout error must beat the trivial all-3s predictor.
  EXPECT_LT(rec.rmse_on(test), 1.2);
}

}  // namespace
}  // namespace alsmf
