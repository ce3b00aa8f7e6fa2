// IVF-style approximate top-N index over item factors.
//
// Exhaustive top-N scores all `items` rows per request — O(items·k), the one
// serving cost that grows with catalog size. The IVF index trades a sliver
// of recall@N for an order-of-magnitude less work per query:
//
//   build:  k-means coarse clustering of the item factor rows (seeded,
//           deterministic Lloyd iterations) into C partitions; per partition
//           a posting list of item ids plus each item's residual norm
//           |y_i − c_p| and the partition's max residual / max item bias.
//           Postings are ordered residual-descending and carry a packed
//           partition-major copy of the factor rows: per-item bounds fall
//           monotonically along a list (the prune becomes an early exit)
//           and rescoring streams memory sequentially instead of gathering
//           scattered rows of y. Memory cost: one extra copy of y.
//   query:  score every centroid (C·k flops), rank partitions by the upper
//           bound  q·c_p + |q|·max_residual_p (+ max_bias_p with a bias
//           model) — no item in p can beat its bound — scan the `nprobe`
//           best partitions, and rescore every surviving candidate with the
//           EXACT dot product (identical arithmetic to the exhaustive path,
//           so returned scores are always exact; only coverage is
//           approximate). nprobe >= clusters degenerates to an exhaustive
//           scan with bit-identical scores.
//
// An index is immutable after build and is published to serving as a member
// of the (also immutable) ModelSnapshot, so one RCU snapshot acquire yields
// a matched model+index pair — a request can never see a version mismatch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/dense.hpp"
#include "recsys/bias.hpp"
#include "recsys/recommender.hpp"

namespace alsmf::index {

struct IvfOptions {
  /// Coarse partition count; 0 picks ~2·sqrt(items), clamped to [1, items].
  int clusters = 0;
  int kmeans_iters = 8;     ///< Lloyd iterations (seeded init from item rows)
  std::uint64_t seed = 42;  ///< determinism: same (y, options) -> same index
  /// Partitions scanned per query when the caller passes nprobe <= 0.
  int nprobe = 8;
};

struct IvfBuildStats {
  int clusters = 0;
  int kmeans_iters = 0;
  index_t items = 0;
  double build_seconds = 0;
  double imbalance = 0;  ///< largest partition / mean partition size
  int empty_partitions = 0;
};

/// Per-query introspection (tests, bench): how much work one topn() did.
struct IvfQueryStats {
  int probed = 0;              ///< partitions scanned
  std::size_t candidates = 0;  ///< items exactly rescored
};

class IvfIndex {
 public:
  /// Builds an index over the rows of `y` (items × k). `bias`, when given,
  /// must be the bias model the snapshot serves with: per-partition max
  /// item bias enters the probe bound so biased rankings keep their recall.
  static std::shared_ptr<const IvfIndex> build(const Matrix& y,
                                               const IvfOptions& options = {},
                                               const BiasModel* bias = nullptr);

  /// Approximate top-n for one factor vector; drop-in for topn_from_factor
  /// (same bias/user/exclude semantics, scores descending and exact). `y`
  /// must be the matrix the index was built from (shape-checked; the
  /// serving snapshot carries both, so the pair can't drift apart).
  /// Candidates are rescored from the index's packed partition-major copy
  /// of the factor rows — same values as y, sequential access — so scores
  /// stay bit-identical to the exhaustive path. nprobe <= 0 uses
  /// options.nprobe from build time.
  std::vector<Recommendation> topn(std::span<const real> factor,
                                   const Matrix& y, int n, int nprobe = 0,
                                   const BiasModel* bias = nullptr,
                                   index_t user = -1,
                                   std::span<const index_t> exclude = {},
                                   IvfQueryStats* stats = nullptr) const;

  index_t items() const { return items_; }
  int k() const { return k_; }
  int clusters() const { return clusters_; }
  int default_nprobe() const { return default_nprobe_; }
  const IvfBuildStats& build_stats() const { return stats_; }

  /// Posting list of partition p: item ids, residual norm descending
  /// (query-time bounds fall monotonically along the list).
  std::span<const index_t> partition(int p) const {
    return {ids_.data() + offsets_[static_cast<std::size_t>(p)],
            offsets_[static_cast<std::size_t>(p) + 1] -
                offsets_[static_cast<std::size_t>(p)]};
  }

 private:
  IvfIndex() = default;

  index_t items_ = 0;
  int k_ = 0;
  int clusters_ = 0;
  int default_nprobe_ = 0;
  IvfBuildStats stats_;

  Matrix centroids_;                   ///< clusters × k
  std::vector<std::size_t> offsets_;   ///< clusters + 1, CSR-style postings
  std::vector<index_t> ids_;           ///< item ids, partition-major,
                                       ///< residual-descending per partition
  std::vector<real> residual_norms_;   ///< |y_i − c_p| aligned with ids_
  std::vector<real> packed_;           ///< items × k factor rows in slot
                                       ///< order (sequential rescoring)
  std::vector<real> max_residual_;     ///< per partition
  std::vector<real> max_bias_;         ///< per partition (0 without bias)
};

}  // namespace alsmf::index
