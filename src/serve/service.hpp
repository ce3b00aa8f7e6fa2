// RecommendService: the thread-safe online serving front-end.
//
//   client threads ──submit──▶ MicroBatcher ──batch──▶ execute_batch
//                     │                                   │
//                     └─ LRU fast path (hot top-N)        ├─ batched fold-in
//                                                         │  Cholesky solves
//   retrainer ──swap_model──▶ ModelStore (RCU publish)    └─ parallel top-N
//                                                            scoring
//
// A cache miss runs as soon as the drain thread is free; misses that queue
// meanwhile form the next batch. Every batch executes against exactly one
// model snapshot acquired at drain time; swap_model publishes a new snapshot
// without blocking in-flight batches and invalidates the result cache. All
// answers carry the snapshot version that produced them.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "robust/circuit_breaker.hpp"
#include "serve/batcher.hpp"
#include "serve/lru_cache.hpp"
#include "serve/model_store.hpp"
#include "serve/request.hpp"
#include "serve/serve_metrics.hpp"

namespace alsmf::serve {

struct ServiceOptions {
  std::size_t max_batch = 64;         ///< most requests one batch takes
  std::size_t cache_capacity = 4096;  ///< top-N LRU entries; 0 disables
  /// Queued requests beyond which submits are rejected immediately
  /// (kRejectedQueueFull). 0 = unbounded.
  std::size_t max_queue = 0;
  /// Deadline stamped on every request at submit; requests still queued
  /// past it are shed at dequeue (kShedDeadline). 0 = no deadline.
  long default_deadline_us = 0;
  /// Fold-in circuit breaker: repeated solve failures temporarily fail
  /// fold-ins fast (kCircuitOpen) instead of burning batch slots.
  robust::CircuitBreakerOptions breaker;
  /// Partitions scanned per top-N query when the snapshot carries an ANN
  /// index; <= 0 uses the index's build-time default. Ignored for
  /// exhaustive snapshots.
  int nprobe = 0;
  /// Metrics registry the service reports into; null = a private registry
  /// owned by the service's ServeMetrics (the pipeline driver passes one
  /// shared registry so serving, index and staleness series co-reside).
  obs::Registry* registry = nullptr;
};

class RecommendService {
 public:
  /// `initial` may be null: the service starts in degraded mode, answering
  /// top-N from the popularity fallback (kDegraded) and everything else
  /// with kNoModel until swap_model publishes a snapshot.
  RecommendService(std::shared_ptr<ModelSnapshot> initial,
                   ServiceOptions options = {});
  ~RecommendService();  ///< stop(): drains the queue, fulfilling all promises

  RecommendService(const RecommendService&) = delete;
  RecommendService& operator=(const RecommendService&) = delete;

  // --- Asynchronous API (thread-safe) -------------------------------------
  /// Predicted score for (user, item). Future throws alsmf::Error on
  /// out-of-range ids (validated against the executing snapshot).
  std::future<ServeResult> submit_predict(index_t user, index_t item);
  /// Top-n recommendations for a known user. Hot users resolve from the
  /// LRU cache without entering the queue.
  std::future<ServeResult> submit_topn(index_t user, int n);
  /// Cold-start: solves the user's factor from their ratings (one row of
  /// the batch's Cholesky solve) and returns top-n over unrated items.
  std::future<ServeResult> submit_fold_in(std::vector<index_t> items,
                                          std::vector<real> ratings, int n);

  // --- Synchronous conveniences -------------------------------------------
  ServeResult predict(index_t user, index_t item);
  ServeResult topn(index_t user, int n);
  ServeResult fold_in(std::vector<index_t> items, std::vector<real> ratings,
                      int n);

  // --- Model lifecycle -----------------------------------------------------
  /// Publishes a retrained model with zero downtime: in-flight batches
  /// finish on the old snapshot, later batches use the new one, and the
  /// result cache is invalidated. Returns the new version.
  std::uint64_t swap_model(std::shared_ptr<ModelSnapshot> next);

  /// Publishes a rebuilt ANN index for the *current* factors (e.g. new
  /// cluster/nprobe parameters, or attaching/detaching the index) as a new
  /// snapshot version. The result cache is invalidated exactly as on a
  /// model swap — eagerly, plus lazily via the version tag — so a top-N
  /// list computed by the old index can never be served afterwards. Null
  /// detaches the index (back to exhaustive scoring). Returns the new
  /// version; requires a published snapshot.
  std::uint64_t swap_index(std::shared_ptr<const index::IvfIndex> ann);

  std::shared_ptr<const ModelSnapshot> snapshot() const { return store_.current(); }
  std::uint64_t model_version() const { return store_.version(); }

  /// Installs the degraded-mode answer: items ranked by global popularity,
  /// served as every user's top-N while no model snapshot is published.
  void set_popularity_fallback(std::vector<Recommendation> ranked);

  // --- Introspection -------------------------------------------------------
  const ServeMetrics& metrics() const { return metrics_; }
  const robust::CircuitBreaker& breaker() const { return breaker_; }
  CacheStats cache_stats() const;
  std::size_t queue_depth() const { return batcher_ ? batcher_->queue_depth() : 0; }
  /// Full metrics + cache report as a JSON object.
  std::string stats_json() const;
  /// Prometheus text exposition of the service's metric registry.
  std::string prometheus_text() const { return metrics_.prometheus_text(); }

  /// Stops the batcher after draining outstanding requests. Subsequent
  /// submits are executed inline (degraded, but never lost). Idempotent.
  void stop();

 private:
  std::future<ServeResult> enqueue(ServeRequest&& request);
  void execute_batch(std::vector<ServeRequest>&& batch);
  /// No snapshot published: answer the whole batch from the popularity
  /// fallback (top-N) or kNoModel (predict, fold-in).
  void execute_batch_degraded(std::vector<ServeRequest>&& batch);

  ServiceOptions options_;
  ModelStore store_;
  TopNCache cache_;
  ServeMetrics metrics_;
  robust::CircuitBreaker breaker_;
  std::atomic<std::shared_ptr<const std::vector<Recommendation>>> fallback_;
  std::unique_ptr<MicroBatcher> batcher_;  // last: stops before members die
};

}  // namespace alsmf::serve
