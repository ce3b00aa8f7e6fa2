#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"

namespace alsmf::serve {

MicroBatcher::MicroBatcher(BatcherOptions options, Executor executor,
                           OnShed on_shed)
    : options_(options),
      executor_(std::move(executor)),
      on_shed_(std::move(on_shed)) {
  ALSMF_CHECK(options_.max_batch >= 1);
  ALSMF_CHECK_MSG(executor_ != nullptr, "MicroBatcher needs an executor");
  drain_ = std::jthread([this] { drain_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

void MicroBatcher::shed(ServeRequest&& request, ServeStatus status) {
  if (on_shed_) on_shed_(request, status);
  ServeResult result;
  result.status = status;
  request.promise.set_value(std::move(result));
}

void MicroBatcher::submit(ServeRequest&& request) {
  request.enqueue_time = std::chrono::steady_clock::now();
  {
    std::unique_lock lk(m_);
    if (!stop_) {
      if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
        lk.unlock();
        shed(std::move(request), ServeStatus::kRejectedQueueFull);
        return;
      }
      queue_.push_back(std::move(request));
      lk.unlock();
      cv_.notify_one();
      return;
    }
  }
  // Stopped: execute inline so the promise is still fulfilled.
  std::vector<ServeRequest> batch;
  batch.push_back(std::move(request));
  executor_(std::move(batch));
}

void MicroBatcher::stop() {
  {
    std::scoped_lock lk(m_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (drain_.joinable()) drain_.join();
}

std::size_t MicroBatcher::queue_depth() const {
  std::scoped_lock lk(m_);
  return queue_.size();
}

void MicroBatcher::drain_loop() {
  std::unique_lock lk(m_);
  while (true) {
    cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // only reachable when stopping
    // Work-conserving: take what is queued now, up to max_batch, and never
    // wait for more; requests that arrive while this batch executes form
    // the next one. Drop requests whose deadline already passed: the client
    // has given up (or will before the answer lands), so a batch slot is
    // better spent on a request that can still be served in time.
    const auto now = std::chrono::steady_clock::now();
    std::vector<ServeRequest> expired;
    std::vector<ServeRequest> batch;
    batch.reserve(std::min(queue_.size(), options_.max_batch));
    while (!queue_.empty() && batch.size() < options_.max_batch) {
      if (queue_.front().deadline < now) {
        expired.push_back(std::move(queue_.front()));
      } else {
        batch.push_back(std::move(queue_.front()));
      }
      queue_.pop_front();
    }
    lk.unlock();
    for (auto& request : expired) {
      shed(std::move(request), ServeStatus::kShedDeadline);
    }
    if (!batch.empty()) executor_(std::move(batch));
    lk.lock();
  }
}

}  // namespace alsmf::serve
