#include <gtest/gtest.h>

#include "als/variant_select.hpp"
#include "data/datasets.hpp"
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
  // The default: paper config (empirical best variant at ws=32).
  for (const char* dev : {"gpu", "cpu", "mic"}) {
    const auto profile = devsim::profile_by_name(dev);
    const TunedConfig best = select_config(netflix(), opts(), profile);
    const double default_time =
        score_variants(netflix(), opts(), profile).front().modeled_seconds;
    EXPECT_LE(best.modeled_seconds, default_time * (1 + 1e-9)) << dev;
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
