// MicroBatcher drain policy: a free executor takes whatever is queued at
// once, FIFO and at most max_batch at a time; requests that arrive while a
// batch executes form the next batch, and a lone request waits for nothing.
#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>
#include <vector>

namespace alsmf::serve {
namespace {

ServeRequest request_for(index_t user) {
  ServeRequest request;
  request.kind = RequestKind::kTopN;
  request.user = user;
  return request;
}

TEST(MicroBatcher, RequestsArrivingDuringABatchFormTheNextBatch) {
  std::promise<void> entered;
  std::future<void> executor_busy = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex m;
  std::vector<std::vector<index_t>> batches;

  BatcherOptions options;
  options.max_batch = 4;
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch) {
    std::vector<index_t> users;
    for (const auto& request : batch) users.push_back(request.user);
    bool first = false;
    {
      std::scoped_lock lk(m);
      first = batches.empty();
      batches.push_back(std::move(users));
    }
    if (first) {
      entered.set_value();
      gate.wait();
    }
    for (auto& request : batch) request.promise.set_value(ServeResult{});
  });

  std::vector<std::future<ServeResult>> futures;
  auto submit = [&](index_t user) {
    auto request = request_for(user);
    futures.push_back(request.promise.get_future());
    batcher.submit(std::move(request));
  };
  submit(0);
  executor_busy.wait();  // the executor holds {0} until the gate opens
  for (index_t user = 1; user <= 10; ++user) submit(user);
  release.set_value();
  for (auto& f : futures) f.get();

  const std::vector<std::vector<index_t>> expected = {
      {0}, {1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10}};
  std::scoped_lock lk(m);
  EXPECT_EQ(batches, expected);
}

TEST(MicroBatcher, LoneRequestIsNotHeldForCompany) {
  // Each request is submitted only after the previous one is answered, so
  // no other request can ever join its batch. A batching window would hold
  // every one of them for the full window; the work-conserving drain
  // dispatches each after one wake-up of the drain thread.
  constexpr std::size_t kRequests = 20;
  std::vector<double> waits_us;
  MicroBatcher batcher(BatcherOptions{}, [&](std::vector<ServeRequest>&& batch) {
    const auto now = std::chrono::steady_clock::now();
    for (auto& request : batch) {
      waits_us.push_back(std::chrono::duration<double, std::micro>(
                             now - request.enqueue_time)
                             .count());
      request.promise.set_value(ServeResult{});
    }
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto request = request_for(static_cast<index_t>(i));
    auto answered = request.promise.get_future();
    batcher.submit(std::move(request));
    answered.get();
  }
  ASSERT_EQ(waits_us.size(), kRequests);
  const double fastest = *std::min_element(waits_us.begin(), waits_us.end());
  EXPECT_LT(fastest, 200.0) << "the fastest of " << kRequests
                            << " lone requests waited " << fastest
                            << " us before executing";
}

}  // namespace
}  // namespace alsmf::serve
