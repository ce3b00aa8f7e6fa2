// Overload-protection tests: bounded-queue shedding, deadline drops,
// degraded popularity fallback, the fold-in circuit breaker, and the
// submitted == completed + shed invariant under a 2x-capacity hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "testing/reference.hpp"
#include "common/error.hpp"
#include "robust/fault_injection.hpp"
#include "serve/batcher.hpp"
#include "serve/service.hpp"
#include "testing/util.hpp"

namespace alsmf::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::shared_ptr<ModelSnapshot> small_snapshot() {
  const Csr train = testing::random_csr(60, 40, 0.2, 901);
  AlsOptions options;
  options.k = 6;
  options.lambda = 0.1f;
  options.iterations = 3;
  auto model = reference_als(train, options);
  return snapshot_from_factors(std::move(model.x), std::move(model.y),
                               options.lambda);
}

ServeRequest topn_request(index_t user, int n) {
  ServeRequest request;
  request.kind = RequestKind::kTopN;
  request.user = user;
  request.n = n;
  return request;
}

TEST(Overload, BatcherShedsWhenQueueFull) {
  // Block the executor so the queue genuinely fills: one batch is stuck in
  // the executor, at most one request is queued, the rest must be shed.
  std::mutex gate;
  std::atomic<int> shed_observed{0};
  std::unique_lock<std::mutex> hold(gate);

  BatcherOptions options;
  options.max_batch = 1;
  options.max_queue = 1;
  MicroBatcher batcher(
      options,
      [&](std::vector<ServeRequest>&& batch) {
        std::lock_guard<std::mutex> wait_for_gate(gate);
        for (auto& r : batch) r.promise.set_value(ServeResult{});
      },
      [&](const ServeRequest&, ServeStatus status) {
        EXPECT_EQ(status, ServeStatus::kRejectedQueueFull);
        ++shed_observed;
      });

  constexpr int kSubmits = 10;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kSubmits; ++i) {
    auto request = topn_request(i, 3);
    futures.push_back(request.promise.get_future());
    batcher.submit(std::move(request));
  }
  hold.unlock();  // release the stuck batch

  int rejected = 0;
  for (auto& f : futures) {
    if (f.get().status == ServeStatus::kRejectedQueueFull) ++rejected;
  }
  // One request can be in flight and one queued; everything else was shed.
  EXPECT_GE(rejected, kSubmits - 2);
  EXPECT_EQ(rejected, shed_observed.load());
}

TEST(Overload, BatcherShedsExpiredDeadlinesAtDequeue) {
  std::atomic<int> executed{0};
  BatcherOptions options;
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch) {
    executed += static_cast<int>(batch.size());
    for (auto& r : batch) r.promise.set_value(ServeResult{});
  });

  auto expired = topn_request(1, 3);
  expired.deadline = steady_clock::now() - milliseconds(1);
  auto expired_future = expired.promise.get_future();
  batcher.submit(std::move(expired));
  EXPECT_EQ(expired_future.get().status, ServeStatus::kShedDeadline);

  auto fresh = topn_request(2, 3);
  fresh.deadline = steady_clock::now() + std::chrono::seconds(30);
  auto fresh_future = fresh.promise.get_future();
  batcher.submit(std::move(fresh));
  EXPECT_EQ(fresh_future.get().status, ServeStatus::kOk);
  EXPECT_EQ(executed.load(), 1);
}

TEST(Overload, DegradedModeServesPopularityFallback) {
  ServiceOptions options;
  RecommendService service(nullptr, options);  // no model published

  // Before a fallback is installed nothing can answer.
  EXPECT_EQ(service.topn(3, 2).status, ServeStatus::kNoModel);

  service.set_popularity_fallback({{7, 5.0f}, {2, 4.0f}, {9, 3.0f}});
  const auto degraded = service.topn(3, 2);
  EXPECT_EQ(degraded.status, ServeStatus::kDegraded);
  EXPECT_FALSE(degraded.ok());
  ASSERT_EQ(degraded.topn.size(), 2u);
  EXPECT_EQ(degraded.topn[0].item, 7);
  EXPECT_EQ(degraded.topn[1].item, 2);
  EXPECT_EQ(degraded.model_version, 0u);

  // Predict and fold-in have no popularity answer.
  EXPECT_EQ(service.predict(1, 1).status, ServeStatus::kNoModel);
  EXPECT_EQ(service.fold_in({1}, {4.0f}, 2).status, ServeStatus::kNoModel);
  EXPECT_GE(service.metrics().degraded(), 1u);

  // Publishing a model ends degraded mode.
  service.swap_model(small_snapshot());
  const auto live = service.topn(3, 2);
  EXPECT_EQ(live.status, ServeStatus::kOk);
  EXPECT_EQ(live.model_version, 1u);
}

TEST(Overload, FoldInBreakerOpensAfterRepeatedSolveFailures) {
  ServiceOptions options;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown = std::chrono::minutes(10);
  RecommendService service(small_snapshot(), options);

  robust::FaultPlan plan;
  plan.probability[static_cast<int>(robust::FaultSite::kFoldInSolve)] = 1.0;
  robust::ScopedFaultInjector scoped(plan);

  EXPECT_EQ(service.fold_in({0, 1}, {4.0f, 5.0f}, 3).status,
            ServeStatus::kSolveFailed);
  EXPECT_EQ(service.fold_in({0, 1}, {4.0f, 5.0f}, 3).status,
            ServeStatus::kSolveFailed);
  // Threshold reached: the breaker now fails fold-ins fast.
  EXPECT_EQ(service.fold_in({0, 1}, {4.0f, 5.0f}, 3).status,
            ServeStatus::kCircuitOpen);
  EXPECT_EQ(service.breaker().trips(), 1u);
  EXPECT_EQ(service.metrics().solve_failures(), 2u);
  EXPECT_GE(service.metrics().circuit_open(), 1u);

  // Other request kinds keep working while the fold-in breaker is open.
  EXPECT_EQ(service.predict(3, 7).status, ServeStatus::kOk);
  EXPECT_EQ(service.topn(5, 4).status, ServeStatus::kOk);
}

TEST(Overload, NonFiniteFoldInRatingIsRejectedAtSubmit) {
  RecommendService service(small_snapshot());
  const real bad = std::numeric_limits<real>::quiet_NaN();
  auto future = service.submit_fold_in({0, 1}, {4.0f, bad}, 3);
  EXPECT_THROW(future.get(), Error);
}

TEST(Overload, HammerAtTwiceCapacityShedsButNeverLosesARequest) {
  ServiceOptions options;
  options.max_batch = 8;
  options.max_queue = 16;
  options.default_deadline_us = 200;
  options.cache_capacity = 0;  // force every request through the queue
  RecommendService service(small_snapshot(), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<std::uint64_t> fulfilled{0};
  std::atomic<std::uint64_t> ok_count{0}, shed_count{0};
  std::vector<std::thread> hammers;
  hammers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      std::vector<std::future<ServeResult>> futures;
      futures.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const auto user = static_cast<index_t>((t * kPerThread + i) % 60);
        if (i % 2 == 0) {
          futures.push_back(service.submit_topn(user, 5));
        } else {
          futures.push_back(
              service.submit_predict(user, static_cast<index_t>(i % 40)));
        }
      }
      for (auto& f : futures) {
        const auto result = f.get();  // every promise must be fulfilled
        ++fulfilled;
        if (result.ok()) {
          ++ok_count;
        } else {
          EXPECT_TRUE(result.status == ServeStatus::kRejectedQueueFull ||
                      result.status == ServeStatus::kShedDeadline)
              << to_string(result.status);
          ++shed_count;
        }
      }
    });
  }
  for (auto& h : hammers) h.join();

  EXPECT_EQ(fulfilled.load(), kThreads * kPerThread);
  const auto& m = service.metrics();
  // The overload accounting invariant: nothing is double-counted or lost.
  EXPECT_EQ(m.submitted(),
            m.completed() + m.shed_queue_full() + m.shed_deadline());
  EXPECT_EQ(m.completed(), ok_count.load());
  EXPECT_EQ(m.shed_queue_full() + m.shed_deadline(), shed_count.load());
  // A tiny queue + 200us deadlines at 2x capacity must shed something.
  EXPECT_GT(shed_count.load(), 0u);

  // The service recovers once the burst ends.
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    recovered = service.topn(1, 5).ok();
  }
  EXPECT_TRUE(recovered);
}

TEST(Overload, StatsJsonIncludesOverloadAndBreaker) {
  ServiceOptions options;
  RecommendService service(small_snapshot(), options);
  service.topn(1, 3);
  const auto json = service.stats_json();
  EXPECT_NE(json.find("\"overload\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_queue_full\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"breaker\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"closed\""), std::string::npos) << json;
}

}  // namespace
}  // namespace alsmf::serve
