#include "index/ivf_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "linalg/vecops.hpp"

namespace alsmf::index {

namespace {

/// ~2·sqrt(items): partitions and mean posting length stay within 2x of
/// each other, which balances the centroid scan against the posting scan.
int heuristic_clusters(index_t items) {
  const auto c = static_cast<int>(
      2.0 * std::sqrt(static_cast<double>(std::max<index_t>(items, 1))));
  return std::clamp(c, 1, static_cast<int>(items));
}

real squared_distance(const real* a, const real* b, std::size_t k) {
  real d = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const real diff = a[c] - b[c];
    d += diff * diff;
  }
  return d;
}

}  // namespace

std::shared_ptr<const IvfIndex> IvfIndex::build(const Matrix& y,
                                                const IvfOptions& options,
                                                const BiasModel* bias) {
  ALSMF_CHECK_MSG(y.rows() > 0 && y.cols() > 0,
                  "cannot index an empty item factor matrix");
  ALSMF_CHECK(options.kmeans_iters >= 0);
  ThreadPool& pool = ThreadPool::global();

  const Timer build_timer;
  const index_t items = y.rows();
  const auto k = static_cast<std::size_t>(y.cols());
  const int clusters = options.clusters > 0
                           ? std::min<int>(options.clusters,
                                           static_cast<int>(items))
                           : heuristic_clusters(items);

  auto index = std::shared_ptr<IvfIndex>(new IvfIndex());
  index->items_ = items;
  index->k_ = static_cast<int>(k);
  index->clusters_ = clusters;
  index->default_nprobe_ =
      std::clamp(options.nprobe, 1, clusters);

  // Seeded init: centroids start at `clusters` distinct item rows.
  Rng rng(options.seed);
  Matrix centroids(clusters, static_cast<index_t>(k));
  {
    std::vector<index_t> picks(static_cast<std::size_t>(items));
    std::iota(picks.begin(), picks.end(), index_t{0});
    for (int c = 0; c < clusters; ++c) {
      // Partial Fisher–Yates: element c becomes a uniform pick without
      // replacement.
      const auto j = static_cast<std::size_t>(c) +
                     rng.bounded(static_cast<std::uint64_t>(items - c));
      std::swap(picks[static_cast<std::size_t>(c)], picks[j]);
      const auto row = y.row(picks[static_cast<std::size_t>(c)]);
      std::copy(row.begin(), row.end(),
                centroids.row(static_cast<index_t>(c)).begin());
    }
  }

  // Lloyd iterations. Assignment parallelizes over items; the update step
  // is a serial accumulation (items × k is small next to the assignment).
  std::vector<int> assign(static_cast<std::size_t>(items), 0);
  for (int iter = 0; iter < options.kmeans_iters; ++iter) {
    pool.parallel_for(0, static_cast<std::size_t>(items),
                      [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) {
        const real* row = y.row(static_cast<index_t>(i)).data();
        real best = std::numeric_limits<real>::max();
        int best_c = 0;
        for (int c = 0; c < clusters; ++c) {
          const real d =
              squared_distance(row, centroids.row(c).data(), k);
          if (d < best) {
            best = d;
            best_c = c;
          }
        }
        assign[i] = best_c;
      }
    });

    Matrix sums(clusters, static_cast<index_t>(k));
    std::vector<std::size_t> counts(static_cast<std::size_t>(clusters), 0);
    for (index_t i = 0; i < items; ++i) {
      const int c = assign[static_cast<std::size_t>(i)];
      ++counts[static_cast<std::size_t>(c)];
      const real* row = y.row(i).data();
      real* sum = sums.row(c).data();
      for (std::size_t d = 0; d < k; ++d) sum[d] += row[d];
    }
    for (int c = 0; c < clusters; ++c) {
      const auto count = counts[static_cast<std::size_t>(c)];
      if (count == 0) continue;  // empty cluster keeps its old centroid
      const real inv = real{1} / static_cast<real>(count);
      real* dst = centroids.row(c).data();
      const real* sum = sums.row(c).data();
      for (std::size_t d = 0; d < k; ++d) dst[d] = sum[d] * inv;
    }
  }
  // Zero k-means iterations still needs an assignment pass for postings.
  if (options.kmeans_iters == 0) {
    for (index_t i = 0; i < items; ++i) {
      const real* row = y.row(i).data();
      real best = std::numeric_limits<real>::max();
      int best_c = 0;
      for (int c = 0; c < clusters; ++c) {
        const real d = squared_distance(row, centroids.row(c).data(), k);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      assign[static_cast<std::size_t>(i)] = best_c;
    }
  }

  // Postings: CSR-style offsets; within each partition the slots are
  // ordered by residual norm DESCENDING (ties by id, for determinism), so
  // per-item upper bounds fall monotonically along a posting list and the
  // query-time prune can stop a partition scan at the first miss. Each
  // slot also carries a packed copy of its item's factor row — candidates
  // are then rescored with sequential loads instead of gathering scattered
  // rows of `y`, which is where an inverted index would otherwise lose to
  // the prefetch-friendly exhaustive scan.
  index->centroids_ = std::move(centroids);
  index->offsets_.assign(static_cast<std::size_t>(clusters) + 1, 0);
  for (index_t i = 0; i < items; ++i) {
    ++index->offsets_[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)]) + 1];
  }
  for (int c = 0; c < clusters; ++c) {
    index->offsets_[static_cast<std::size_t>(c) + 1] +=
        index->offsets_[static_cast<std::size_t>(c)];
  }
  index->ids_.resize(static_cast<std::size_t>(items));
  index->residual_norms_.resize(static_cast<std::size_t>(items));
  index->packed_.resize(static_cast<std::size_t>(items) * k);
  index->max_residual_.assign(static_cast<std::size_t>(clusters), 0);
  index->max_bias_.assign(static_cast<std::size_t>(clusters), 0);
  {
    struct Slot {
      index_t id;
      real residual;
    };
    std::vector<std::vector<Slot>> posting(static_cast<std::size_t>(clusters));
    for (index_t i = 0; i < items; ++i) {
      const int c = assign[static_cast<std::size_t>(i)];
      const real residual = std::sqrt(squared_distance(
          y.row(i).data(), index->centroids_.row(c).data(), k));
      posting[static_cast<std::size_t>(c)].push_back({i, residual});
      if (bias) {
        index->max_bias_[static_cast<std::size_t>(c)] =
            std::max(index->max_bias_[static_cast<std::size_t>(c)],
                     bias->item_bias(i));
      }
    }
    for (int c = 0; c < clusters; ++c) {
      auto& slots = posting[static_cast<std::size_t>(c)];
      std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
        if (a.residual != b.residual) return a.residual > b.residual;
        return a.id < b.id;
      });
      std::size_t slot = index->offsets_[static_cast<std::size_t>(c)];
      for (const Slot& s : slots) {
        index->ids_[slot] = s.id;
        index->residual_norms_[slot] = s.residual;
        const auto row = y.row(s.id);
        std::copy(row.begin(), row.end(), index->packed_.begin() + slot * k);
        ++slot;
      }
      if (!slots.empty()) {
        index->max_residual_[static_cast<std::size_t>(c)] =
            slots.front().residual;
      }
    }
  }

  IvfBuildStats& stats = index->stats_;
  stats.clusters = clusters;
  stats.kmeans_iters = options.kmeans_iters;
  stats.items = items;
  std::size_t largest = 0;
  for (int c = 0; c < clusters; ++c) {
    const auto size = index->partition(c).size();
    largest = std::max(largest, size);
    if (size == 0) ++stats.empty_partitions;
  }
  stats.imbalance = static_cast<double>(largest) * clusters /
                    static_cast<double>(items);
  stats.build_seconds = build_timer.seconds();
  return index;
}

std::vector<Recommendation> IvfIndex::topn(std::span<const real> factor,
                                           const Matrix& y, int n, int nprobe,
                                           const BiasModel* bias, index_t user,
                                           std::span<const index_t> exclude,
                                           IvfQueryStats* stats) const {
  ALSMF_CHECK(n >= 0);
  ALSMF_CHECK_MSG(static_cast<index_t>(factor.size()) == y.cols(),
                  "factor length does not match item factor rank");
  ALSMF_CHECK_MSG(y.rows() == items_ && static_cast<int>(y.cols()) == k_,
                  "item factor matrix does not match the one this index was "
                  "built from");
  if (nprobe <= 0) nprobe = default_nprobe_;
  nprobe = std::min(nprobe, clusters_);

  const auto k = factor.size();
  const real* q = factor.data();
  real qnorm = 0;
  for (std::size_t c = 0; c < k; ++c) qnorm += q[c] * q[c];
  qnorm = std::sqrt(qnorm);

  // Rank partitions by the best score any of their items could reach:
  // y_i = c_p + r_i, so q·y_i + b_i <= q·c_p + |q|·max|r| + max b.
  std::vector<std::pair<real, int>> bounds;
  bounds.reserve(static_cast<std::size_t>(clusters_));
  for (int c = 0; c < clusters_; ++c) {
    if (partition(c).empty()) continue;
    const real qc = vdot(q, centroids_.row(c).data(), k);
    const real bound = qc + qnorm * max_residual_[static_cast<std::size_t>(c)] +
                       (bias ? max_bias_[static_cast<std::size_t>(c)] : real{0});
    bounds.push_back({bound, c});
  }
  const int probe = std::min<int>(nprobe, static_cast<int>(bounds.size()));
  std::partial_sort(bounds.begin(), bounds.begin() + probe, bounds.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;  // deterministic ties
                    });

  // Exact rescoring of the surviving candidates, same min-heap shape (and
  // same scoring arithmetic) as the exhaustive topn_from_factor.
  std::vector<Recommendation> heap;
  heap.reserve(static_cast<std::size_t>(n) + 1);
  auto cmp = [](const Recommendation& a, const Recommendation& b) {
    return a.score > b.score;  // min-heap by score
  };
  const bool user_bias = bias && user >= 0;
  // Heap scores include the rank-independent baseline (μ [+ b_u]) when a
  // bias model is in play; the prune bound must carry the same constant.
  const real bias_base =
      bias ? bias->global_mean() + (user_bias ? bias->user_bias(user) : real{0})
           : real{0};
  std::size_t rescored = 0;
  for (int p = 0; p < probe; ++p) {
    const int c = bounds[static_cast<std::size_t>(p)].second;
    const auto ids = partition(c);
    const real* norms = residual_norms_.data() +
                        offsets_[static_cast<std::size_t>(c)];
    const real qc = vdot(q, centroids_.row(c).data(), k);
    const real bound_base =
        qc + bias_base +
        (bias ? max_bias_[static_cast<std::size_t>(c)] : real{0});
    const real* packed = packed_.data() + offsets_[static_cast<std::size_t>(c)] * k;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const index_t i = ids[j];
      // Per-item prune: once the heap is full, stop the partition as soon
      // as an item's own upper bound cannot beat the current n-th best.
      // Postings are ordered by residual norm descending, so bounds only
      // fall from here — the first miss ends the whole list. The slack
      // keeps the bound conservative under float rounding (the bound is
      // exact over reals, but vdot and the bound round differently); it is
      // monotone in the bound, so the early exit stays admissible.
      if (n > 0 && static_cast<int>(heap.size()) >= n) {
        const real bound = bound_base + qnorm * norms[j];
        const real slack = real{1e-4} * (real{1} + std::abs(bound));
        if (bound + slack <= heap.front().score) break;
      }
      if (!exclude.empty() &&
          std::binary_search(exclude.begin(), exclude.end(), i)) {
        continue;
      }
      // Rescore from the index's packed copy of the row — sequential loads
      // along the posting list; same values as y.row(i), so scores are
      // bit-identical to the exhaustive path.
      real score = vdot(q, packed + j * k, k);
      if (user_bias) {
        score = bias->combine(user, i, score);
      } else if (bias) {
        score += bias->global_mean() + bias->item_bias(i);
      }
      ++rescored;
      if (static_cast<int>(heap.size()) < n) {
        heap.push_back({i, score});
        std::push_heap(heap.begin(), heap.end(), cmp);
      } else if (n > 0 && score > heap.front().score) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = {i, score};
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  if (stats) {
    stats->probed = probe;
    stats->candidates = rescored;
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

}  // namespace alsmf::index
