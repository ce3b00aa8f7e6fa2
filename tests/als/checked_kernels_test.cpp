// Checked execution over the real ALS kernels: running under the checker
// must not change a single output bit or any recorded counter, and the
// staging the local-memory variant declares must match a hand count. (The
// sweep over every kernel × profile is the certificate's checked-execution
// leg, tests/ocl/certify_kernels_test.cpp.)
#include <gtest/gtest.h>

#include <string>

#include "als/kernels.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"

namespace alsmf {
namespace {

constexpr int kK = 8;

Csr test_ratings() {
  SyntheticSpec spec;
  spec.users = 150;
  spec.items = 90;
  spec.nnz = 2000;
  spec.seed = 7;
  return generate_synthetic_csr(spec);
}

Matrix test_factors(const Csr& r) {
  Rng rng(7);
  Matrix src(r.cols(), kK);
  src.fill_uniform(rng, -0.5f, 0.5f);
  return src;
}

UpdateArgs update_args(const Csr& r, const Matrix& src, unsigned mask,
                       int tile_rows) {
  UpdateArgs args;
  args.r = &r;
  args.src = &src;
  args.k = kK;
  args.variant = AlsVariant::from_mask(mask);
  args.tile_rows = tile_rows;
  return args;
}

TEST(CheckKernels, ValidatedOutputsBitIdenticalToPlain) {
  const Csr r = test_ratings();
  const Matrix src = test_factors(r);

  // tile_rows 0 is the automatic staging tile; 4 splits every row of the
  // local-memory variants into many staged chunks.
  for (const int tile_rows : {0, 4}) {
    SCOPED_TRACE("tile_rows=" + std::to_string(tile_rows));
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      UpdateArgs args = update_args(r, src, mask, tile_rows);
      const AlsVariant& v = args.variant;

      Matrix plain_dst(r.rows(), kK);
      devsim::Device plain(devsim::k20c());
      args.dst = &plain_dst;
      const auto base = launch_update(plain, "u", args, 16, 16,
                                      /*functional=*/true, /*validate=*/false);

      Matrix checked_dst(r.rows(), kK);
      devsim::Device checked(devsim::k20c());
      args.dst = &checked_dst;
      const auto val = launch_update(checked, "u", args, 16, 16,
                                     /*functional=*/true, /*validate=*/true);

      EXPECT_TRUE(val.check.clean()) << v.name() << ":\n" << val.check.to_json();
      for (std::size_t i = 0; i < plain_dst.size(); ++i) {
        ASSERT_EQ(plain_dst.data()[i], checked_dst.data()[i])
            << v.name() << " diverges at element " << i;
      }
      // Both launches sum counters over the same fixed blocks of groups in
      // the same order, so the totals agree to the last bit.
      EXPECT_EQ(base.counters.lane_ops_scalar, val.counters.lane_ops_scalar)
          << v.name();
      EXPECT_EQ(base.counters.global_bytes, val.counters.global_bytes)
          << v.name();
      EXPECT_EQ(base.counters.local_bytes, val.counters.local_bytes)
          << v.name();
      EXPECT_EQ(base.counters.spill_bytes, val.counters.spill_bytes)
          << v.name();
      EXPECT_EQ(base.time.total_s(), val.time.total_s()) << v.name();
    }
  }
}

// The local-memory variant declares its staging to the checker instead of
// copying data, so the declared accesses are its only description: per
// rating one y row (k floats) and one rating are written to the tile and
// read back, Σ_u 2·ω_u·(k+1)·4 bytes whatever the chunking. Counter
// honesty would let a dropped or doubled mark pass, so pin the count.
TEST(CheckKernels, DeclaredStagingTrafficMatchesHandCount) {
  const Csr r = test_ratings();
  const Matrix src = test_factors(r);
  const double staged_bytes =
      2.0 * static_cast<double>(r.nnz()) * (kK + 1) * 4.0;

  for (const int tile_rows : {0, 4}) {
    SCOPED_TRACE("tile_rows=" + std::to_string(tile_rows));
    double global_bytes = -1;
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      UpdateArgs args = update_args(r, src, mask, tile_rows);
      Matrix dst(r.rows(), kK);
      args.dst = &dst;
      devsim::Device device(devsim::k20c());
      const auto res = launch_update(device, "u", args, 16, 16,
                                     /*functional=*/true, /*validate=*/true);
      const std::string name = args.variant.name();
      EXPECT_TRUE(res.check.clean()) << name << ":\n" << res.check.to_json();
      EXPECT_EQ(res.check.touched_local_bytes,
                args.variant.use_local ? staged_bytes : 0.0)
          << name;
      // Staging moves scratch-pad bytes only: every variant reads and
      // writes the same global bytes.
      if (mask == 0) global_bytes = res.check.touched_global_bytes;
      EXPECT_EQ(res.check.touched_global_bytes, global_bytes) << name;
    }
    EXPECT_GT(global_bytes, 0.0);
  }
}

}  // namespace
}  // namespace alsmf
