#include "recsys/fold_in.hpp"

#include <gtest/gtest.h>

#include "testing/reference.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

TEST(FoldIn, MatchesTrainingRowSolveExactly) {
  // Folding in a user who was in the training set, with exactly their
  // training ratings, must reproduce their trained factor bit for bit
  // (fold-in IS the ALS row update).
  const Csr train = testing::random_csr(50, 40, 0.2, 170);
  AlsOptions options;
  options.k = 5;
  options.lambda = 0.1f;
  options.iterations = 4;
  auto model = reference_als(train, options);
  // Refresh X against the *final* Y so the comparison is an identity (the
  // iteration loop leaves X one half-step behind Y).
  reference_half_update(train, model.y, model.x, options);

  index_t user = 0;
  for (index_t u = 0; u < train.rows(); ++u) {
    if (train.row_nnz(u) >= 3) {
      user = u;
      break;
    }
  }
  auto cols = train.row_cols(user);
  auto vals = train.row_values(user);
  const auto folded = fold_in_user(model.y, cols, vals, options.lambda);
  // The final X update used this exact Y, so the row solve agrees exactly.
  ASSERT_EQ(folded.size(), 5u);
  for (int f = 0; f < 5; ++f) {
    EXPECT_FLOAT_EQ(folded[static_cast<std::size_t>(f)], model.x(user, f));
  }
}

TEST(FoldIn, NewUserGetsReasonablePredictions) {
  SyntheticSpec spec;
  spec.users = 200;
  spec.items = 100;
  spec.nnz = 8000;
  spec.planted_rank = 3;
  spec.noise = 0.1;
  spec.integer_ratings = false;
  spec.seed = 171;
  const Csr train = coo_to_csr(generate_synthetic(spec));
  AlsOptions options;
  options.k = 6;
  options.iterations = 8;
  const auto model = reference_als(train, options);

  // The "new user" rates items 0..9 with the values user 0 gave would-be
  // (use the planted structure via user 0's actual ratings).
  std::vector<index_t> items(train.row_cols(0).begin(),
                             train.row_cols(0).end());
  std::vector<real> ratings(train.row_values(0).begin(),
                            train.row_values(0).end());
  ASSERT_GE(items.size(), 1u);
  const auto folded = fold_in_user(model.y, items, ratings, options.lambda);

  // Predictions on the rated items should be close to the given ratings.
  double err = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const real pred = fold_in_predict(folded, model.y, items[i]);
    err += std::abs(static_cast<double>(pred) - ratings[i]);
  }
  EXPECT_LT(err / static_cast<double>(items.size()), 1.0);
}

TEST(FoldIn, ItemSideSymmetric) {
  const Csr train = testing::random_csr(40, 30, 0.2, 172);
  AlsOptions options;
  options.k = 4;
  options.iterations = 3;
  const auto model = reference_als(train, options);

  const Csr train_t = transpose(train);
  index_t item = 0;
  for (index_t i = 0; i < train_t.rows(); ++i) {
    if (train_t.row_nnz(i) >= 2) {
      item = i;
      break;
    }
  }
  const auto folded = fold_in_item(model.x, train_t.row_cols(item),
                                   train_t.row_values(item), options.lambda);
  for (int f = 0; f < 4; ++f) {
    EXPECT_FLOAT_EQ(folded[static_cast<std::size_t>(f)], model.y(item, f));
  }
}

TEST(FoldIn, SingleRatingWorks) {
  Matrix y(10, 3);
  Rng rng(173);
  y.fill_uniform(rng, -1, 1);
  const std::vector<index_t> items = {4};
  const std::vector<real> ratings = {5.0f};
  const auto folded = fold_in_user(y, items, ratings, 0.1f);
  EXPECT_EQ(folded.size(), 3u);
  // The prediction moves toward the rating (shrunk by lambda).
  EXPECT_GT(fold_in_predict(folded, y, 4), 0.0f);
}

TEST(FoldIn, InvalidInputsRejected) {
  Matrix y(10, 3, 0.1f);
  const std::vector<index_t> items = {4};
  const std::vector<real> one = {3.0f};
  const std::vector<real> two = {3.0f, 2.0f};
  EXPECT_THROW(fold_in_user(y, items, two, 0.1f), Error);   // size mismatch
  EXPECT_THROW(fold_in_user(y, {}, {}, 0.1f), Error);       // empty
  EXPECT_THROW(fold_in_user(y, std::vector<index_t>{99}, one, 0.1f), Error);
  EXPECT_THROW(fold_in_user(y, items, one, 0.0f), Error);   // lambda
}

TEST(FoldIn, ErrorMessagesNameTheViolation) {
  Matrix y(10, 3, 0.1f);
  const std::vector<real> one = {3.0f};
  try {
    fold_in_user(y, std::vector<index_t>{99}, one, 0.1f);
    FAIL() << "out-of-range id accepted";
  } catch (const Error& e) {
    // The message states the offending id and the valid range.
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 10)"), std::string::npos)
        << e.what();
  }
  try {
    fold_in_user(y, {}, {}, 0.1f);
    FAIL() << "empty ratings accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at least one rating"),
              std::string::npos)
        << e.what();
  }
  try {
    fold_in_user(y, std::vector<index_t>{1, 2}, one, 0.1f);
    FAIL() << "length mismatch accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2 ids"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("1 ratings"), std::string::npos)
        << e.what();
  }
}

TEST(FoldIn, NegativeIdRejected) {
  Matrix y(10, 3, 0.1f);
  const std::vector<real> one = {3.0f};
  EXPECT_THROW(fold_in_user(y, std::vector<index_t>{-1}, one, 0.1f), Error);
  EXPECT_THROW(fold_in_item(y, std::vector<index_t>{-7}, one, 0.1f), Error);
}

}  // namespace
}  // namespace alsmf
