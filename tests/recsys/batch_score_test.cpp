#include "recsys/batch_score.hpp"

#include <gtest/gtest.h>

#include "testing/reference.hpp"
#include "common/error.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

struct Model {
  Matrix x, y;
};

Model trained_model() {
  const Csr train = testing::random_csr(30, 25, 0.25, 510);
  AlsOptions options;
  options.k = 5;
  options.iterations = 3;
  auto m = reference_als(train, options);
  return {std::move(m.x), std::move(m.y)};
}

TEST(BatchScore, MatchesBruteForceTopN) {
  const auto m = trained_model();
  const auto top = topn_from_factor(m.x.row(4), m.y, 6);
  ASSERT_EQ(top.size(), 6u);
  // Scores descending.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  // Brute force: no item outside the top-6 may beat the 6th score.
  for (index_t item = 0; item < m.y.rows(); ++item) {
    real score = 0;
    for (index_t c = 0; c < m.y.cols(); ++c) score += m.x(4, c) * m.y(item, c);
    bool in_top = false;
    for (const auto& t : top) in_top |= (t.item == item);
    if (!in_top) {
      EXPECT_LE(score, top.back().score);
    }
  }
}

TEST(BatchScore, ExcludeListSkipsItems) {
  const auto m = trained_model();
  const auto full = topn_from_factor(m.x.row(2), m.y, 3);
  const std::vector<index_t> exclude = {full[0].item};
  // Exclusion list must be sorted; a single element trivially is.
  const auto filtered =
      topn_from_factor(m.x.row(2), m.y, 3, nullptr, -1, exclude);
  for (const auto& r : filtered) EXPECT_NE(r.item, full[0].item);
  EXPECT_EQ(filtered[0].item, full[1].item);
}

TEST(BatchScore, NLargerThanItemsReturnsAll) {
  const auto m = trained_model();
  const auto top = topn_from_factor(m.x.row(0), m.y, 1000);
  EXPECT_EQ(top.size(), static_cast<std::size_t>(m.y.rows()));
}

TEST(BatchScore, RankMismatchRejected) {
  const auto m = trained_model();
  const std::vector<real> bad(static_cast<std::size_t>(m.y.cols()) + 1, 0.0f);
  EXPECT_THROW(topn_from_factor(bad, m.y, 3), Error);
}

TEST(BatchScore, BatchAgreesWithSingleCalls) {
  const auto m = trained_model();
  const std::vector<index_t> users = {0, 3, 7, 11, 29};
  std::vector<real> factors;
  for (const index_t u : users) {
    factors.insert(factors.end(), m.x.row(u).begin(), m.x.row(u).end());
  }
  ThreadPool pool(2);
  const auto batched =
      topn_from_factors_batch(factors.data(), users.size(), m.y, 4, &pool);
  ASSERT_EQ(batched.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto single = topn_from_factor(m.x.row(users[i]), m.y, 4);
    ASSERT_EQ(batched[i].size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[i][j].item, single[j].item);
      EXPECT_FLOAT_EQ(batched[i][j].score, single[j].score);
    }
  }
}

TEST(BatchScore, RecommenderDelegationUnchanged) {
  // Recommender::recommend now routes through topn_from_factor; both must
  // agree bit for bit (guards the refactor).
  const Csr train = testing::random_csr(20, 15, 0.3, 511);
  AlsOptions options;
  options.k = 4;
  options.iterations = 3;
  Recommender rec;
  rec.train(train, options, devsim::xeon_e5_2670_dual());
  const auto via_rec = rec.recommend(3, 5, &train);
  const auto direct = topn_from_factor(rec.user_factors().row(3),
                                       rec.item_factors(), 5, nullptr, 3,
                                       train.row_cols(3));
  ASSERT_EQ(via_rec.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_rec[i].item, direct[i].item);
    EXPECT_FLOAT_EQ(via_rec[i].score, direct[i].score);
  }
}

}  // namespace
}  // namespace alsmf
