#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include <cmath>

#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "index/ivf_index.hpp"
#include "linalg/batched.hpp"
#include "linalg/vecops.hpp"
#include "recsys/batch_score.hpp"
#include "robust/fault_injection.hpp"

namespace alsmf::serve {

namespace {

using clock = std::chrono::steady_clock;

double micros_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

ServeResult cache_hit_result(std::uint64_t version,
                             std::vector<Recommendation> topn) {
  ServeResult result;
  result.model_version = version;
  result.topn = std::move(topn);
  result.cache_hit = true;
  return result;
}

/// Validates a request against the snapshot it is about to execute on.
/// Throws alsmf::Error with an actionable message.
void validate(const ServeRequest& request, const ModelSnapshot& snap) {
  ALSMF_CHECK_MSG(request.n >= 0, "top-n count must be non-negative");
  switch (request.kind) {
    case RequestKind::kPredict:
      ALSMF_CHECK_MSG(request.user >= 0 && request.user < snap.users(),
                      "predict user id " + std::to_string(request.user) +
                          " outside [0, " + std::to_string(snap.users()) + ")");
      ALSMF_CHECK_MSG(request.item >= 0 && request.item < snap.items(),
                      "predict item id " + std::to_string(request.item) +
                          " outside [0, " + std::to_string(snap.items()) + ")");
      break;
    case RequestKind::kTopN:
      ALSMF_CHECK_MSG(request.user >= 0 && request.user < snap.users(),
                      "top-n user id " + std::to_string(request.user) +
                          " outside [0, " + std::to_string(snap.users()) + ")");
      break;
    case RequestKind::kFoldIn:
      ALSMF_CHECK_MSG(!request.fold_items.empty(),
                      "fold-in needs at least one rating");
      ALSMF_CHECK_MSG(request.fold_items.size() == request.fold_ratings.size(),
                      "fold-in items/ratings length mismatch");
      for (const index_t item : request.fold_items) {
        ALSMF_CHECK_MSG(item >= 0 && item < snap.items(),
                        "fold-in item id " + std::to_string(item) +
                            " outside [0, " + std::to_string(snap.items()) + ")");
      }
      for (const real rating : request.fold_ratings) {
        ALSMF_CHECK_MSG(std::isfinite(rating),
                        "fold-in rating is not finite; refusing to poison the "
                        "normal equations");
      }
      break;
  }
}

}  // namespace

RecommendService::RecommendService(std::shared_ptr<ModelSnapshot> initial,
                                   ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      metrics_(options.registry),
      breaker_(options.breaker) {
  if (initial) store_.publish(std::move(initial));
  BatcherOptions batcher_options;
  batcher_options.max_batch = options_.max_batch;
  batcher_options.max_queue = options_.max_queue;
  batcher_ = std::make_unique<MicroBatcher>(
      batcher_options,
      [this](std::vector<ServeRequest>&& batch) { execute_batch(std::move(batch)); },
      [this](const ServeRequest&, ServeStatus status) {
        metrics_.record_shed(status);
      });
}

RecommendService::~RecommendService() { stop(); }

void RecommendService::stop() {
  if (batcher_) batcher_->stop();
}

std::future<ServeResult> RecommendService::enqueue(ServeRequest&& request) {
  metrics_.record_enqueue(request.kind);
  if (options_.default_deadline_us > 0) {
    request.deadline = clock::now() +
                       std::chrono::microseconds(options_.default_deadline_us);
  }
  auto future = request.promise.get_future();
  batcher_->submit(std::move(request));
  return future;
}

std::future<ServeResult> RecommendService::submit_predict(index_t user,
                                                          index_t item) {
  ServeRequest request;
  request.kind = RequestKind::kPredict;
  request.user = user;
  request.item = item;
  return enqueue(std::move(request));
}

std::future<ServeResult> RecommendService::submit_topn(index_t user, int n) {
  // Fast path: hot users answer from the LRU cache without queueing.
  const Timer lookup;
  const auto snap = store_.current();
  std::vector<Recommendation> cached;
  if (snap && cache_.get(user, n, snap->version, &cached)) {
    metrics_.record_enqueue(RequestKind::kTopN);
    metrics_.record_cache_fast_path(lookup.seconds() * 1e6);
    std::promise<ServeResult> promise;
    promise.set_value(cache_hit_result(snap->version, std::move(cached)));
    return promise.get_future();
  }
  ServeRequest request;
  request.kind = RequestKind::kTopN;
  request.user = user;
  request.n = n;
  return enqueue(std::move(request));
}

std::future<ServeResult> RecommendService::submit_fold_in(
    std::vector<index_t> items, std::vector<real> ratings, int n) {
  ServeRequest request;
  request.kind = RequestKind::kFoldIn;
  request.fold_items = std::move(items);
  request.fold_ratings = std::move(ratings);
  request.n = n;
  return enqueue(std::move(request));
}

ServeResult RecommendService::predict(index_t user, index_t item) {
  return submit_predict(user, item).get();
}

ServeResult RecommendService::topn(index_t user, int n) {
  return submit_topn(user, n).get();
}

ServeResult RecommendService::fold_in(std::vector<index_t> items,
                                      std::vector<real> ratings, int n) {
  return submit_fold_in(std::move(items), std::move(ratings), n).get();
}

std::uint64_t RecommendService::swap_model(std::shared_ptr<ModelSnapshot> next) {
  const std::uint64_t version = store_.publish(std::move(next));
  // Entries computed by older snapshots are dropped eagerly here and
  // rejected lazily by the cache's version tag if a slow in-flight batch
  // re-inserts one afterwards.
  cache_.invalidate_all();
  metrics_.record_swap();
  return version;
}

std::uint64_t RecommendService::swap_index(
    std::shared_ptr<const index::IvfIndex> ann) {
  const auto snap = store_.current();
  ALSMF_CHECK_MSG(snap != nullptr, "swap_index before any model is published");
  // Same factors, new (or no) index, published as a fresh snapshot version:
  // the version tag is what lets the cache reject a stale top-N that a slow
  // in-flight batch computed with the old index.
  auto next = std::make_shared<ModelSnapshot>(*snap);
  next->ann = std::move(ann);
  return swap_model(std::move(next));
}

void RecommendService::set_popularity_fallback(
    std::vector<Recommendation> ranked) {
  fallback_.store(std::make_shared<const std::vector<Recommendation>>(
                      std::move(ranked)),
                  std::memory_order_release);
}

CacheStats RecommendService::cache_stats() const {
  CacheStats stats;
  stats.hits = cache_.hits();
  stats.misses = cache_.misses();
  stats.evictions = cache_.evictions();
  stats.size = cache_.size();
  return stats;
}

std::string RecommendService::stats_json() const {
  return metrics_.to_json(cache_stats(), breaker_.to_json());
}

void RecommendService::execute_batch_degraded(
    std::vector<ServeRequest>&& batch) {
  const auto drain_time = clock::now();
  const Timer exec;
  const auto fallback = fallback_.load(std::memory_order_acquire);
  std::vector<ServeResult> results(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ServeRequest& request = batch[i];
    ServeResult& result = results[i];
    if (request.kind == RequestKind::kTopN && fallback && !fallback->empty()) {
      result.status = ServeStatus::kDegraded;
      const auto n = std::min<std::size_t>(
          request.n > 0 ? static_cast<std::size_t>(request.n) : 0,
          fallback->size());
      result.topn.assign(fallback->begin(),
                         fallback->begin() + static_cast<std::ptrdiff_t>(n));
    } else {
      result.status = ServeStatus::kNoModel;
    }
  }
  metrics_.record_batch(batch.size(), batcher_ ? batcher_->queue_depth() : 0,
                        exec.seconds() * 1e6);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    metrics_.record_status(results[i].status);
    metrics_.record_done(batch[i].kind,
                         micros_between(batch[i].enqueue_time, drain_time),
                         micros_between(batch[i].enqueue_time, clock::now()));
    batch[i].promise.set_value(std::move(results[i]));
  }
}

void RecommendService::execute_batch(std::vector<ServeRequest>&& batch) {
  const auto drain_time = clock::now();
  const Timer exec;
  // One snapshot per batch: every request in it is answered by the same
  // immutable model, even if swap_model runs concurrently.
  const auto snap = store_.current();
  if (!snap) {
    execute_batch_degraded(std::move(batch));
    return;
  }
  const auto k = static_cast<std::size_t>(snap->k());
  ThreadPool& pool = ThreadPool::global();

  // Validate serially (cheap), collecting the fold-in sub-batch. Fold-ins
  // pass through the circuit breaker: while it is open they fail fast with
  // kCircuitOpen instead of occupying solve slots.
  std::vector<std::exception_ptr> errors(batch.size());
  std::vector<ServeStatus> statuses(batch.size(), ServeStatus::kOk);
  std::vector<std::size_t> foldins;  // indices into batch
  std::vector<std::size_t> foldin_slot(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    try {
      validate(batch[i], *snap);
      if (batch[i].kind == RequestKind::kFoldIn) {
        if (!breaker_.allow()) {
          statuses[i] = ServeStatus::kCircuitOpen;
          continue;
        }
        foldin_slot[i] = foldins.size();
        foldins.push_back(i);
      }
    } catch (...) {
      errors[i] = std::current_exception();
      metrics_.record_rejected();
    }
  }

  // Stage 1 — fold-ins: assemble all normal equations, then solve them as
  // one batched Cholesky (each cold user is one row of the batch).
  std::vector<real> gram(foldins.size() * k * k);
  std::vector<real> rhs(foldins.size() * k);
  std::vector<char> foldin_failed(foldins.size(), 0);
  if (!foldins.empty()) {
    pool.parallel_for(0, foldins.size(), [&](std::size_t b, std::size_t e,
                                             unsigned) {
      for (std::size_t f = b; f < e; ++f) {
        if (robust::fault_at(robust::FaultSite::kFoldInSolve)) {
          foldin_failed[f] = 1;
          continue;
        }
        const ServeRequest& request = batch[foldins[f]];
        std::span<const real> vals = request.fold_ratings;
        std::vector<real> residuals;
        if (snap->has_bias) {
          // Factors were trained on baseline residuals: remove the cold
          // user's baseline μ + b_i before the row solve.
          residuals.assign(vals.begin(), vals.end());
          for (std::size_t p = 0; p < residuals.size(); ++p) {
            residuals[p] -= snap->bias.global_mean() +
                            snap->bias.item_bias(request.fold_items[p]);
          }
          vals = residuals;
        }
        assemble_normal_equations(request.fold_items, vals, snap->y,
                                  snap->lambda, static_cast<int>(k),
                                  gram.data() + f * k * k, rhs.data() + f * k);
      }
    });
    batched_cholesky_solve(gram.data(), rhs.data(), foldins.size(),
                           static_cast<int>(k), pool);
    // Feed the breaker per fold-in: injected faults and non-finite factors
    // count as failures, everything else as success.
    for (std::size_t f = 0; f < foldins.size(); ++f) {
      if (!foldin_failed[f]) {
        const real* factor = rhs.data() + f * k;
        for (std::size_t c = 0; c < k; ++c) {
          if (!std::isfinite(factor[c])) {
            foldin_failed[f] = 1;
            break;
          }
        }
      }
      if (foldin_failed[f]) {
        breaker_.record_failure();
        statuses[foldins[f]] = ServeStatus::kSolveFailed;
      } else {
        breaker_.record_success();
      }
    }
  }

  // Stage 2 — score every request in parallel against the one snapshot.
  std::vector<ServeResult> results(batch.size());
  pool.parallel_for(0, batch.size(), [&](std::size_t b, std::size_t e,
                                         unsigned) {
    for (std::size_t i = b; i < e; ++i) {
      if (errors[i]) continue;
      ServeRequest& request = batch[i];
      ServeResult& result = results[i];
      result.model_version = snap->version;
      if (statuses[i] != ServeStatus::kOk) {
        result.status = statuses[i];
        continue;
      }
      try {
        switch (request.kind) {
          case RequestKind::kPredict: {
            real score = vdot(snap->x.row(request.user).data(),
                              snap->y.row(request.item).data(), k);
            if (snap->has_bias) {
              score = snap->bias.combine(request.user, request.item, score);
            }
            result.score = score;
            break;
          }
          case RequestKind::kTopN: {
            const auto* bias = snap->has_bias ? &snap->bias : nullptr;
            result.topn =
                snap->ann
                    ? snap->ann->topn(snap->x.row(request.user), snap->y,
                                      request.n, options_.nprobe, bias,
                                      request.user)
                    : topn_from_factor(snap->x.row(request.user), snap->y,
                                       request.n, bias, request.user);
            cache_.put(request.user, request.n, snap->version, result.topn);
            break;
          }
          case RequestKind::kFoldIn: {
            const real* factor = rhs.data() + foldin_slot[i] * k;
            result.factor.assign(factor, factor + k);
            std::vector<index_t> exclude = request.fold_items;
            std::sort(exclude.begin(), exclude.end());
            const auto* bias = snap->has_bias ? &snap->bias : nullptr;
            result.topn =
                snap->ann ? snap->ann->topn(result.factor, snap->y, request.n,
                                            options_.nprobe, bias, -1, exclude)
                          : topn_from_factor(result.factor, snap->y, request.n,
                                             bias, -1, exclude);
            break;
          }
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });

  const double exec_us = exec.seconds() * 1e6;
  metrics_.record_batch(batch.size(), batcher_ ? batcher_->queue_depth() : 0,
                        exec_us);

  // Fulfill promises last, after all shared state is settled.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double queue_us = micros_between(batch[i].enqueue_time, drain_time);
    // Record before fulfilling: a client that wakes on the future must see
    // its own request already counted in the metrics.
    if (statuses[i] != ServeStatus::kOk) metrics_.record_status(statuses[i]);
    metrics_.record_done(batch[i].kind, queue_us,
                         micros_between(batch[i].enqueue_time, clock::now()));
    if (errors[i]) {
      batch[i].promise.set_exception(errors[i]);
    } else {
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

}  // namespace alsmf::serve
