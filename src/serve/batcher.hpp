// Micro-batching request queue.
//
// Incoming requests accumulate in a queue; a dedicated drain thread hands
// them to the executor in FIFO batches of up to `max_batch`. The drain is
// work-conserving: whenever the executor is free it takes what is queued
// and never waits for more, so a lone request is not held for company and
// requests that arrive while a batch executes form the next batch. Like the
// paper's thread batching, it groups the rows that exist: a cold user's
// fold-in becomes one row of a batched Cholesky solve when others queue too.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/request.hpp"

namespace alsmf::serve {

struct BatcherOptions {
  std::size_t max_batch = 64;
  /// Queued requests beyond which submits are shed with
  /// ServeStatus::kRejectedQueueFull. 0 = unbounded.
  std::size_t max_queue = 0;
};

class MicroBatcher {
 public:
  /// The executor receives each drained batch (never empty) on the drain
  /// thread and must fulfill every request's promise.
  using Executor = std::function<void(std::vector<ServeRequest>&&)>;
  /// Observes each shed request (queue full or expired deadline) before the
  /// batcher fulfills its promise with the given status — metrics recorded
  /// here are visible to a client that wakes on the future.
  using OnShed = std::function<void(const ServeRequest&, ServeStatus)>;

  MicroBatcher(BatcherOptions options, Executor executor,
               OnShed on_shed = nullptr);
  ~MicroBatcher();  ///< stop(): drains remaining requests, then joins

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues a request (stamps its enqueue_time) and wakes the drain
  /// thread. A full bounded queue sheds the request immediately with
  /// kRejectedQueueFull. After stop(), the request is executed inline as a
  /// batch of one so its promise is always fulfilled (no shedding).
  void submit(ServeRequest&& request);

  /// Stops accepting queued execution; outstanding requests are drained in
  /// batches before the drain thread exits. Idempotent.
  void stop();

  std::size_t queue_depth() const;

  const BatcherOptions& options() const { return options_; }

 private:
  void drain_loop();
  /// Notifies on_shed_, then fulfills the promise with `status`.
  void shed(ServeRequest&& request, ServeStatus status);

  BatcherOptions options_;
  Executor executor_;
  OnShed on_shed_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<ServeRequest> queue_;
  bool stop_ = false;
  std::jthread drain_;  // last member: joins before the rest is destroyed
};

}  // namespace alsmf::serve
