// Checked execution over the real ALS kernels: running under the checker
// must not change a single output bit or any recorded counter. (The sweep
// over every kernel × profile is the certificate's checked-execution leg,
// tests/ocl/certify_kernels_test.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "als/kernels.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"

namespace alsmf {
namespace {

TEST(CheckKernels, ValidatedOutputsBitIdenticalToPlain) {
  SyntheticSpec spec;
  spec.users = 150;
  spec.items = 90;
  spec.nnz = 2000;
  spec.seed = 7;
  const Csr r = generate_synthetic_csr(spec);
  Rng rng(7);
  Matrix src(r.cols(), 8);
  src.fill_uniform(rng, -0.5f, 0.5f);

  // tile_rows 0 is the automatic staging tile; 4 splits every row of the
  // local-memory variants into many staged chunks.
  for (const int tile_rows : {0, 4}) {
    SCOPED_TRACE("tile_rows=" + std::to_string(tile_rows));
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      const AlsVariant v = AlsVariant::from_mask(mask);
      UpdateArgs args;
      args.r = &r;
      args.src = &src;
      args.k = 8;
      args.variant = v;
      args.tile_rows = tile_rows;

      Matrix plain_dst(r.rows(), 8);
      devsim::Device plain(devsim::k20c());
      args.dst = &plain_dst;
      const auto base = launch_update(plain, "u", args, 16, 16,
                                      /*functional=*/true, /*validate=*/false);

      Matrix checked_dst(r.rows(), 8);
      devsim::Device checked(devsim::k20c());
      args.dst = &checked_dst;
      const auto val = launch_update(checked, "u", args, 16, 16,
                                     /*functional=*/true, /*validate=*/true);

      EXPECT_TRUE(val.check.clean()) << v.name() << ":\n" << val.check.to_json();
      for (std::size_t i = 0; i < plain_dst.size(); ++i) {
        ASSERT_EQ(plain_dst.data()[i], checked_dst.data()[i])
            << v.name() << " diverges at element " << i;
      }
      // The pooled launch merges per-worker partial sums while the validated
      // launch accumulates groups serially, so counter totals may differ by
      // summation rounding — but nothing more.
      auto near = [&](double a, double b, const char* what) {
        EXPECT_NEAR(a, b, 1e-9 * (std::abs(a) + 1.0)) << v.name() << " " << what;
      };
      near(base.counters.lane_ops_scalar, val.counters.lane_ops_scalar, "ops");
      near(base.counters.global_bytes, val.counters.global_bytes, "global");
      near(base.counters.local_bytes, val.counters.local_bytes, "local");
      near(base.counters.spill_bytes, val.counters.spill_bytes, "spill");
      near(base.time.total_s(), val.time.total_s(), "time");
    }
  }
}

}  // namespace
}  // namespace alsmf
