#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "testing/reference.hpp"
#include "common/error.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/fold_in.hpp"
#include "testing/util.hpp"

namespace alsmf::serve {
namespace {

struct TrainedModel {
  Matrix x, y;
  real lambda = 0.1f;
};

TrainedModel small_model() {
  const Csr train = testing::random_csr(60, 40, 0.2, 900);
  AlsOptions options;
  options.k = 6;
  options.lambda = 0.1f;
  options.iterations = 4;
  auto model = reference_als(train, options);
  return {std::move(model.x), std::move(model.y), options.lambda};
}

std::shared_ptr<ModelSnapshot> snapshot_of(const TrainedModel& m) {
  return snapshot_from_factors(m.x, m.y, m.lambda);
}

TEST(RecommendService, PredictMatchesDirectDot) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  const auto result = service.predict(3, 7);
  real expect = 0;
  for (index_t c = 0; c < model.x.cols(); ++c) expect += model.x(3, c) * model.y(7, c);
  EXPECT_FLOAT_EQ(result.score, expect);
  EXPECT_EQ(result.model_version, 1u);
  EXPECT_FALSE(result.cache_hit);
}

TEST(RecommendService, TopNMatchesBatchScoreAndCaches) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  const auto direct = topn_from_factor(model.x.row(5), model.y, 8);

  const auto first = service.topn(5, 8);
  ASSERT_EQ(first.topn.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(first.topn[i].item, direct[i].item);
    EXPECT_FLOAT_EQ(first.topn[i].score, direct[i].score);
  }
  EXPECT_FALSE(first.cache_hit);

  const auto second = service.topn(5, 8);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.topn.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(second.topn[i].item, direct[i].item);
  }
  EXPECT_GE(service.cache_stats().hits, 1u);
}

TEST(RecommendService, FoldInMatchesSingleSolve) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  const std::vector<index_t> items = {1, 5, 9};
  const std::vector<real> ratings = {4.0f, 2.0f, 5.0f};

  const auto result = service.fold_in(items, ratings, 5);
  const auto direct = fold_in_user(model.y, items, ratings, model.lambda);
  ASSERT_EQ(result.factor.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FLOAT_EQ(result.factor[i], direct[i]);
  }
  // Rated items are excluded from the returned top-n.
  for (const auto& r : result.topn) {
    EXPECT_NE(r.item, 1);
    EXPECT_NE(r.item, 5);
    EXPECT_NE(r.item, 9);
  }
  EXPECT_EQ(result.topn.size(), 5u);
}

TEST(RecommendService, InvalidRequestsRejectTheFutureOnly) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  EXPECT_THROW(service.predict(-1, 0), Error);
  EXPECT_THROW(service.predict(0, 40), Error);
  EXPECT_THROW(service.topn(60, 5), Error);
  EXPECT_THROW(service.fold_in({}, {}, 5), Error);
  EXPECT_THROW(service.fold_in({40}, {3.0f}, 5), Error);
  EXPECT_THROW(service.fold_in({1, 2}, {3.0f}, 5), Error);
  // The service keeps serving after rejections.
  EXPECT_NO_THROW(service.predict(0, 0));
}

TEST(RecommendService, SwapInvalidatesCacheAndBumpsVersion) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  const auto before = service.topn(2, 4);
  EXPECT_EQ(before.model_version, 1u);

  // Swap in a perturbed model: different factors → different scores.
  TrainedModel next = small_model();
  for (index_t r = 0; r < next.x.rows(); ++r) {
    for (index_t c = 0; c < next.x.cols(); ++c) next.x(r, c) *= 2.0f;
  }
  const std::uint64_t v = service.swap_model(snapshot_of(next));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(service.model_version(), 2u);

  const auto after = service.topn(2, 4);
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_FALSE(after.cache_hit);  // cache was invalidated by the swap
  EXPECT_EQ(service.metrics().swaps(), 1u);
}

TEST(RecommendService, ConcurrentSubmissionsFormBatches) {
  const auto model = small_model();
  ServiceOptions options;
  options.max_batch = 16;
  options.cache_capacity = 0;  // force every request through the queue
  RecommendService service(snapshot_of(model), options);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(service.submit_topn(i % 60, 5));
  }
  for (auto& f : futures) {
    const auto result = f.get();
    EXPECT_EQ(result.model_version, 1u);
    EXPECT_EQ(result.topn.size(), 5u);
  }
  EXPECT_EQ(service.metrics().completed(), 64u);
  // 64 back-to-back submissions on a 16-deep batcher: those that queue
  // while a batch executes form the next one, so strictly fewer batches
  // than requests proves micro-batching actually coalesced.
  EXPECT_LT(service.metrics().batches(), 64u);
  EXPECT_GT(service.metrics().mean_batch_size(), 1.0);
}

TEST(RecommendService, StopDrainsOutstandingRequests) {
  const auto model = small_model();
  ServiceOptions options;
  RecommendService service(snapshot_of(model), options);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit_topn(i, 3));
  service.stop();
  for (auto& f : futures) EXPECT_EQ(f.get().topn.size(), 3u);
  // Submits after stop still complete (inline execution).
  EXPECT_EQ(service.topn(1, 2).topn.size(), 2u);
}

TEST(RecommendService, StatsJsonHasTheReportShape) {
  const auto model = small_model();
  RecommendService service(snapshot_of(model));
  (void)service.topn(1, 3);
  (void)service.topn(1, 3);  // cache hit
  (void)service.predict(0, 0);
  const std::string json = service.stats_json();
  for (const char* key :
       {"\"qps\":", "\"requests\":", "\"cache\":", "\"hit_rate\":",
        "\"latency_us\":", "\"queue\":", "\"exec\":", "\"total\":",
        "\"batch_size\":", "\"queue_depth\":", "\"p50\":", "\"p99\":",
        "\"swaps\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
}

}  // namespace
}  // namespace alsmf::serve
