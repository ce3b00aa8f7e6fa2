// Satellite: N producer threads hammer the service while the model is hot
// swapped repeatedly. Every answer must be internally consistent with
// exactly ONE snapshot — the one named by its model_version — and the cache
// must serve only current-version entries after each swap.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "index/ivf_index.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/fold_in.hpp"
#include "serve/service.hpp"

namespace alsmf::serve {
namespace {

constexpr index_t kUsers = 32;
constexpr index_t kItems = 24;
constexpr int kRank = 4;

// Version v's factors are all fill(v), so any score from snapshot v equals
// kRank·fill(v)² exactly (small integers: exact in float). A torn read —
// factors from one snapshot, version tag or bias from another — produces a
// value outside the valid set.
real fill_of(std::uint64_t version) {
  return static_cast<real>(1 + (version % 5));
}

std::shared_ptr<ModelSnapshot> snapshot_for_next_version(std::uint64_t version) {
  Matrix x(kUsers, kRank, fill_of(version));
  Matrix y(kItems, kRank, fill_of(version));
  return snapshot_from_factors(std::move(x), std::move(y), 0.1f);
}

real expected_score(std::uint64_t version) {
  return static_cast<real>(kRank) * fill_of(version) * fill_of(version);
}

TEST(SwapUnderLoad, EveryAnswerComesFromExactlyOneSnapshot) {
  ServiceOptions options;
  options.max_batch = 8;
  options.cache_capacity = 64;
  RecommendService service(snapshot_for_next_version(1), options);

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 250;
  constexpr std::uint64_t kSwaps = 40;

  std::atomic<std::uint64_t> max_seen_version{1};
  std::atomic<int> torn{0};
  std::atomic<int> completed{0};

  auto check_version = [&](std::uint64_t version) {
    // Versions are published 1..kSwaps+1; anything else is corrupt.
    if (version < 1 || version > kSwaps + 1) torn.fetch_add(1);
    std::uint64_t seen = max_seen_version.load();
    while (version > seen &&
           !max_seen_version.compare_exchange_weak(seen, version)) {
    }
  };

  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        const auto user = static_cast<index_t>((p * 31 + i) % kUsers);
        const int kind = i % 3;
        if (kind == 0) {
          const auto r = service.predict(user, static_cast<index_t>(i % kItems));
          check_version(r.model_version);
          if (r.score != expected_score(r.model_version)) torn.fetch_add(1);
        } else if (kind == 1) {
          const auto r = service.topn(user, 5);
          check_version(r.model_version);
          for (const auto& rec : r.topn) {
            if (rec.score != expected_score(r.model_version)) torn.fetch_add(1);
          }
          if (r.topn.size() != 5u) torn.fetch_add(1);
        } else {
          const auto r = service.fold_in({0, 1}, {3.0f, 4.0f}, 3);
          check_version(r.model_version);
          // The solved factor must be bit-identical to a direct fold-in
          // against the claimed snapshot's item factors (same arithmetic).
          const Matrix y(kItems, kRank, fill_of(r.model_version));
          const auto direct =
              fold_in_user(y, std::vector<index_t>{0, 1},
                           std::vector<real>{3.0f, 4.0f}, 0.1f);
          if (r.factor != direct) torn.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  std::uint64_t published = 1;
  for (std::uint64_t s = 0; s < kSwaps; ++s) {
    published = service.swap_model(snapshot_for_next_version(published + 1));
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  producers.clear();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(completed.load(), kProducers * kRequestsPerProducer);
  EXPECT_EQ(published, kSwaps + 1);
  // Producers observed swaps actually landing mid-stream.
  EXPECT_GT(max_seen_version.load(), 1u);

  // Cache coherence after the dust settles: answers must match the final
  // snapshot exactly, whether or not they come from the cache.
  const auto final_version = service.model_version();
  EXPECT_EQ(final_version, kSwaps + 1);
  for (int round = 0; round < 2; ++round) {
    const auto r = service.topn(3, 5);
    EXPECT_EQ(r.model_version, final_version);
    for (const auto& rec : r.topn) {
      EXPECT_EQ(rec.score, expected_score(final_version));
    }
  }
  EXPECT_EQ(service.metrics().swaps(), kSwaps);
}

// Same hammer, but every published snapshot carries a freshly built IVF
// index (a model+index PAIR swap). Scores must still be internally
// consistent with exactly one snapshot: the index rescoring runs against
// the same snapshot's factors, so a torn model/index pairing would surface
// as a score outside the valid per-version set.
TEST(SwapUnderLoad, ModelAndIndexPairsSwapAtomically) {
  ServiceOptions options;
  options.max_batch = 8;
  options.cache_capacity = 64;
  options.nprobe = 2;  // partial probing: the index is really in the path
  index::IvfOptions ivf;
  ivf.clusters = 4;

  auto paired_snapshot = [&](std::uint64_t version) {
    auto snap = snapshot_for_next_version(version);
    attach_ivf_index(*snap, ivf);
    return snap;
  };

  RecommendService service(paired_snapshot(1), options);

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 200;
  constexpr std::uint64_t kSwaps = 25;

  std::atomic<int> torn{0};
  std::atomic<int> completed{0};

  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        const auto user = static_cast<index_t>((p * 31 + i) % kUsers);
        if (i % 2 == 0) {
          const auto r = service.topn(user, 5);
          if (r.model_version < 1 || r.model_version > kSwaps + 1) {
            torn.fetch_add(1);
          }
          if (r.topn.size() != 5u) torn.fetch_add(1);
          for (const auto& rec : r.topn) {
            if (rec.score != expected_score(r.model_version)) torn.fetch_add(1);
          }
        } else {
          const auto r = service.fold_in({0, 1}, {3.0f, 4.0f}, 3);
          if (r.model_version < 1 || r.model_version > kSwaps + 1) {
            torn.fetch_add(1);
          }
          const Matrix y(kItems, kRank, fill_of(r.model_version));
          const auto direct =
              fold_in_user(y, std::vector<index_t>{0, 1},
                           std::vector<real>{3.0f, 4.0f}, 0.1f);
          if (r.factor != direct) torn.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  std::uint64_t published = 1;
  for (std::uint64_t s = 0; s < kSwaps; ++s) {
    published = service.swap_model(paired_snapshot(published + 1));
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  producers.clear();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(completed.load(), kProducers * kRequestsPerProducer);
  EXPECT_EQ(published, kSwaps + 1);
  // The final snapshot still has its index attached and answers through it.
  ASSERT_NE(service.snapshot()->ann, nullptr);
  const auto r = service.topn(1, 5);
  EXPECT_EQ(r.model_version, kSwaps + 1);
  for (const auto& rec : r.topn) {
    EXPECT_EQ(rec.score, expected_score(kSwaps + 1));
  }
}

// Publishing a snapshot whose index was built for different factors must be
// rejected before it becomes visible — the no-mismatch guarantee's backstop.
TEST(SwapUnderLoad, MismatchedIndexPairIsRejectedAtPublish) {
  RecommendService service(snapshot_for_next_version(1), {});
  Matrix other(kItems + 3, kRank, 1.0f);  // wrong item count
  auto bad = snapshot_for_next_version(2);
  bad->ann = index::IvfIndex::build(other, index::IvfOptions{.clusters = 2});
  EXPECT_THROW(service.swap_model(std::move(bad)), Error);
  // The rejected publish left the served version untouched.
  EXPECT_EQ(service.model_version(), 1u);
}

}  // namespace
}  // namespace alsmf::serve
