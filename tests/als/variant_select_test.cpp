#include "als/variant_select.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 10;
  o.iterations = 2;
  o.num_groups = 256;
  return o;
}

TEST(VariantSelect, ScoresAllEightSortedAscending) {
  const Csr train = make_replica("YMR4", 8.0);
  const auto scores = score_variants(train, opts(), devsim::k20c());
  ASSERT_EQ(scores.size(), AlsVariant::kVariantCount);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_LE(scores[i - 1].modeled_seconds, scores[i].modeled_seconds);
  }
  for (const auto& s : scores) EXPECT_GT(s.modeled_seconds, 0.0);
}

TEST(VariantSelect, GpuEmpiricalBestUsesLocalAndRegisters) {
  // Fig. 6: registers + local memory dominate on the GPU.
  const Csr train = make_replica("NTFX", 256.0);
  const AlsVariant best =
      score_variants(train, opts(), devsim::k20c()).front().variant;
  EXPECT_TRUE(best.use_local);
  EXPECT_TRUE(best.use_registers);
}

TEST(VariantSelect, CpuEmpiricalBestAvoidsRegistersWithLocal) {
  // §V-B: registers+local harmful on CPU; best CPU variants use local.
  const Csr train = make_replica("NTFX", 256.0);
  const AlsVariant best =
      score_variants(train, opts(), devsim::xeon_e5_2670_dual())
          .front()
          .variant;
  EXPECT_TRUE(best.use_local);
  EXPECT_FALSE(best.use_registers);
}

TEST(VariantSelect, StaticScoresAllEightSortedAscending) {
  const Csr train = make_replica("YMR4", 8.0);
  const auto scores = score_variants_static(train, opts(), devsim::k20c());
  ASSERT_EQ(scores.size(), AlsVariant::kVariantCount);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_LE(scores[i - 1].modeled_seconds, scores[i].modeled_seconds);
  }
  for (const auto& s : scores) EXPECT_GT(s.modeled_seconds, 0.0);
}

TEST(VariantSelect, StaticRankingPutsEmpiricalBestInTopTwo) {
  // The zero-run contract: the variant the empirical selector finds by
  // actually running all 8 must sit in the static ranking's top 2, on
  // every built-in device profile.
  for (const char* dataset : {"YMR4", "NTFX"}) {
    const Csr train = make_replica(dataset, 64.0);
    for (const char* dev : {"gpu", "cpu", "mic"}) {
      const auto profile = devsim::profile_by_name(dev);
      const AlsVariant best =
          score_variants(train, opts(), profile).front().variant;
      const auto ranked = score_variants_static(train, opts(), profile);
      EXPECT_TRUE(best == ranked[0].variant || best == ranked[1].variant)
          << dataset << "/" << dev << ": empirical best " << best.name()
          << " not in static top-2 (" << ranked[0].variant.name() << ", "
          << ranked[1].variant.name() << ")";
    }
  }
}

TEST(VariantSelect, StaticSelectorNeverRunsButStaysCompetitive) {
  // The static ranking's first pick must be within 25% of the empirical
  // optimum's modeled time.
  const Csr train = make_replica("NTFX", 128.0);
  for (const char* dev : {"gpu", "cpu", "mic"}) {
    const auto profile = devsim::profile_by_name(dev);
    const AlsVariant pick =
        score_variants_static(train, opts(), profile).front().variant;
    const auto scores = score_variants(train, opts(), profile);
    double pick_time = 0;
    for (const auto& s : scores) {
      if (s.variant == pick) pick_time = s.modeled_seconds;
    }
    EXPECT_LE(pick_time, scores.front().modeled_seconds * 1.25) << dev;
  }
}

TEST(VariantSelect, SelectConfigMatchesExhaustiveGrid) {
  // select_config ranks the grid statically and runs only its top two; the
  // oracle runs every grid point. Contexts: three synthetic shapes spanning
  // the row-length and skew regimes × k × device, plus two Table I replicas.
  struct Dataset {
    std::string name;
    Csr train;
    std::vector<int> ks;
  };
  std::vector<Dataset> datasets;
  const struct {
    index_t users, items;
    nnz_t nnz;
    double alpha;
  } shapes[] = {
      {3000, 800, 60000, 0.6},    // short, mildly skewed rows
      {2000, 1500, 120000, 0.9},  // medium rows
      {1000, 2000, 150000, 1.1},  // long, highly skewed rows
  };
  std::uint64_t seed = 7;
  for (const auto& shape : shapes) {
    SyntheticSpec spec;
    spec.users = shape.users;
    spec.items = shape.items;
    spec.nnz = shape.nnz;
    spec.user_alpha = shape.alpha;
    spec.seed = seed++;
    datasets.push_back({"synthetic" + std::to_string(spec.seed),
                        generate_synthetic_csr(spec), {5, 10, 30}});
  }
  datasets.push_back({"YMR4/8", make_replica("YMR4", 8.0), {10}});
  datasets.push_back({"NTFX/512", make_replica("NTFX", 512.0), {10}});

  // The caller's own group sizes: two on the grid, one off it.
  constexpr int kCallerSizes[] = {8, 32, 128};
  struct Case {
    const Dataset* data;
    int k;
    const char* device;
    TunedConfig picked{};
    double oracle = -1;
    // score_variants' best at each of kCallerSizes.
    double caller_best[std::size(kCallerSizes)] = {};
  };
  std::vector<Case> cases;
  for (const Dataset& d : datasets) {
    for (const int k : d.ks) {
      for (const char* dev : {"gpu", "cpu", "mic"}) {
        cases.push_back({&d, k, dev});
      }
    }
  }

  // Each case makes ~150 accounting runs: spread the cases over the pool,
  // then check them on this thread.
  ThreadPool::global().parallel_for(
      0, cases.size(), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) {
          Case& c = cases[i];
          const auto profile = devsim::profile_by_name(c.device);
          AlsOptions options;
          options.k = c.k;
          options.iterations = 1;
          options.num_groups = 2048;
          for (const int ws : {8, 16, 32, 64}) {
            for (const int tile : {0, 32, 64, 128}) {
              AlsOptions grid = options;
              grid.group_size = ws;
              grid.tile_rows = tile;
              for (const auto& s :
                   score_variants(c.data->train, grid, profile)) {
                if (c.oracle < 0 || s.modeled_seconds < c.oracle) {
                  c.oracle = s.modeled_seconds;
                }
              }
            }
          }
          c.picked = select_config(c.data->train, options, profile);
          for (std::size_t j = 0; j < std::size(kCallerSizes); ++j) {
            AlsOptions caller = options;
            caller.group_size = kCallerSizes[j];
            c.caller_best[j] = score_variants(c.data->train, caller, profile)
                                   .front()
                                   .modeled_seconds;
          }
        }
      });

  for (const Case& c : cases) {
    const std::string where =
        c.data->name + "/k" + std::to_string(c.k) + "/" + c.device;
    EXPECT_NEAR(c.picked.modeled_seconds, c.oracle, 1e-9 * c.oracle)
        << where << ": picked " << c.picked.to_string();
    // Never worse than the paper's exhaustive variant choice at the
    // caller's own launch shape, on or off the grid.
    for (std::size_t j = 0; j < std::size(kCallerSizes); ++j) {
      EXPECT_LE(c.picked.modeled_seconds, c.caller_best[j] * (1 + 1e-9))
          << where << " ws=" << kCallerSizes[j];
    }
  }
}

TEST(VariantSelect, VariantNamesRoundTrip) {
  EXPECT_EQ(AlsVariant::from_mask(0).name(), "batch");
  EXPECT_EQ(AlsVariant::from_mask(1).name(), "batch+reg");
  EXPECT_EQ(AlsVariant::from_mask(2).name(), "batch+local");
  EXPECT_EQ(AlsVariant::from_mask(3).name(), "batch+local+reg");
  EXPECT_EQ(AlsVariant::from_mask(4).name(), "batch+vec");
  EXPECT_EQ(AlsVariant::from_mask(7).name(), "batch+local+reg+vec");
  EXPECT_EQ(AlsVariant::flat_baseline().name(), "flat");
  EXPECT_THROW(AlsVariant::from_mask(8), Error);
}

}  // namespace
}  // namespace alsmf
