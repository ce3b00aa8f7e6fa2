#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "als/solver.hpp"
#include "als/variant_select.hpp"
#include "data/datasets.hpp"
#include "devsim/device.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 10;
  o.iterations = 2;
  o.num_groups = 1024;
  return o;
}

const Csr& netflix() {
  static const Csr csr = make_replica("NTFX", 512.0);
  return csr;
}

TEST(Autotune, BeatsOrMatchesDefaultConfiguration) {
  // The default: paper config (empirical best variant at ws=32). Modeled
  // seconds are byte-stable (Device::launch sums fixed blocks in index
  // order), so a second call makes the same pick with the same bits.
  for (const char* dev : {"gpu", "cpu", "mic"}) {
    const auto profile = devsim::profile_by_name(dev);
    const TunedConfig best = select_config(netflix(), opts(), profile);
    const double default_time =
        score_variants(netflix(), opts(), profile).front().modeled_seconds;
    EXPECT_LE(best.modeled_seconds, default_time * (1 + 1e-9)) << dev;
    const TunedConfig again = select_config(netflix(), opts(), profile);
    EXPECT_EQ(again.to_string(), best.to_string()) << dev;
    EXPECT_EQ(again.modeled_seconds, best.modeled_seconds) << dev;
  }
}

TEST(Autotune, GpuPrefersGroupCoveringK) {
  // Fig. 6: registers + local memory win on the GPU; §V-E: the best group
  // size is the smallest covering k.
  const TunedConfig best = select_config(netflix(), opts(), devsim::k20c());
  EXPECT_TRUE(best.variant.use_local) << best.to_string();
  EXPECT_TRUE(best.variant.use_registers) << best.to_string();
  EXPECT_GE(best.group_size, 10);  // k = 10
  EXPECT_LE(best.group_size, 32);
}

TEST(Autotune, CpuPrefersSmallGroups) {
  // §V-B: registers+local degrades on the CPU; §V-E: the smaller the group
  // the better.
  const TunedConfig best =
      select_config(netflix(), opts(), devsim::xeon_e5_2670_dual());
  EXPECT_TRUE(best.variant.use_local) << best.to_string();
  EXPECT_FALSE(best.variant.use_registers) << best.to_string();
  EXPECT_LE(best.group_size, 16);
}

TEST(Autotune, MicPrefersLocalWithoutRegisters) {
  // §V-B: as on the CPU, registers+local degrades on the MIC.
  const TunedConfig best =
      select_config(netflix(), opts(), devsim::xeon_phi_31sp());
  EXPECT_TRUE(best.variant.use_local) << best.to_string();
  EXPECT_FALSE(best.variant.use_registers) << best.to_string();
}

TEST(Autotune, RejectsInvalidOptions) {
  // Validated before any kernel source is generated for the static rank.
  const Csr train = testing::random_csr(10, 10, 0.3, 220);
  AlsOptions bad = opts();
  bad.k = 0;
  EXPECT_THROW(select_config(train, bad, devsim::k20c()), Error);
}

TEST(Autotune, PicksOnlyConfigurationsThatFitLocalMemory) {
  // On the GPU every batched kernel keeps the k×k system in the 48 KB
  // scratch-pad: with the exact solver, at k = 110 only the non-local
  // variants fit and from k = 111 none does; the subspace sweep's per-row
  // scratch (k + d² + d reals, d = k/2) crowds the staging tile out at
  // k = 98 and leaves no room from k = 99. The oracle is the launch itself:
  // a grid point fits when one accounting iteration of it does not throw.
  const Csr train = testing::random_csr(300, 200, 0.1, 17);
  const devsim::DeviceProfile gpu = devsim::k20c();
  struct Case {
    RowSolverKind solver;
    int k;
    std::size_t fits;  // of the 80 grid points
  };
  for (const Case& c : {Case{RowSolverKind::kCholesky, 108, 80},
                        Case{RowSolverKind::kCholesky, 109, 80},
                        Case{RowSolverKind::kCholesky, 110, 16},
                        Case{RowSolverKind::kCholesky, 111, 0},
                        Case{RowSolverKind::kSubspace, 98, 16},
                        Case{RowSolverKind::kSubspace, 99, 0}}) {
    SCOPED_TRACE("k = " + std::to_string(c.k) + ", row solver " +
                 std::to_string(static_cast<int>(c.solver)));
    AlsOptions o = opts();
    o.k = c.k;
    o.row_solver = c.solver;
    AlsOptions accounting = o;
    accounting.functional = false;
    RunConfig one;
    one.iterations = 1;
    std::vector<TunedConfig> feasible;
    for (const int ws : {8, 16, 32, 64}) {
      for (const int tile : {0, 32, 64, 128}) {
        for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
          const TunedConfig point{AlsVariant::from_mask(mask), ws, tile};
          if (tile != 0 && !point.variant.use_local) continue;
          devsim::Device device(gpu);
          AlsSolver solver(train, apply_tuning(accounting, point),
                           point.variant, device);
          try {
            solver.run(one);
            feasible.push_back(point);
          } catch (const Error&) {
          }
        }
      }
    }
    EXPECT_EQ(feasible.size(), c.fits);
    if (feasible.empty()) {
      try {
        select_config(train, o, gpu);
        ADD_FAILURE() << "no configuration fits, yet one was picked";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("k = " + std::to_string(c.k)), std::string::npos)
            << what;
        EXPECT_NE(what.find("49152"), std::string::npos) << what;
      }
      continue;
    }
    const TunedConfig pick = select_config(train, o, gpu);
    EXPECT_TRUE(std::any_of(feasible.begin(), feasible.end(),
                            [&](const TunedConfig& f) {
                              return f.variant == pick.variant &&
                                     f.group_size == pick.group_size &&
                                     f.tile_rows == pick.tile_rows;
                            }))
        << pick.to_string();
  }
}

TEST(Autotune, ToStringDescribesConfig) {
  TunedConfig c;
  c.variant = AlsVariant::batch_local_reg();
  c.group_size = 16;
  c.tile_rows = 0;
  EXPECT_EQ(c.to_string(), "batch+local+reg ws=16 tile=auto");
  c.tile_rows = 64;
  EXPECT_EQ(c.to_string(), "batch+local+reg ws=16 tile=64");
  c.variant = AlsVariant::batching_only();
  EXPECT_EQ(c.to_string(), "batch ws=16");
}

TEST(Autotune, ApplyTuningSetsLaunchShape) {
  TunedConfig c;
  c.group_size = 8;
  c.tile_rows = 128;
  const AlsOptions tuned = apply_tuning(opts(), c);
  EXPECT_EQ(tuned.group_size, 8);
  EXPECT_EQ(tuned.tile_rows, 128);
  EXPECT_EQ(tuned.k, opts().k);  // untouched
}

}  // namespace
}  // namespace alsmf
