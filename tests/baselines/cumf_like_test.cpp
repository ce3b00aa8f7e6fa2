#include "baselines/cumf_like.hpp"

#include <gtest/gtest.h>

#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "data/datasets.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

AlsOptions opts() {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.iterations = 3;
  o.seed = 55;
  return o;
}

TEST(CumfLike, FunctionallyMatchesReference) {
  const Csr train = testing::random_csr(60, 40, 0.15, 30);
  devsim::Device device(devsim::k20c());
  CumfLikeAls cumf(train, opts(), device);
  cumf.run();
  const auto ref = reference_als(train, opts());
  EXPECT_EQ(cumf.x(), ref.x);
  EXPECT_EQ(cumf.y(), ref.y);
}

TEST(CumfLike, SlowerThanOurSolverAtSmallK) {
  // The paper beats cuMF by 2.2x-6.8x at k = 10 (its kernels target k=100).
  const Csr train = make_replica("NTFX", 512.0);
  AlsOptions o = opts();
  o.k = 10;
  o.functional = false;

  devsim::Device cumf_device(devsim::k20c());
  CumfLikeAls cumf(train, o, cumf_device);
  const double cumf_time = cumf.run();

  devsim::Device ours_device(devsim::k20c());
  AlsSolver ours(train, o, AlsVariant::batch_local_reg(), ours_device);
  const double ours_time = ours.run({}).modeled_seconds;

  EXPECT_GT(cumf_time, ours_time * 1.5);
  EXPECT_LT(cumf_time, ours_time * 20.0);  // but not absurdly slower
}

TEST(CumfLike, ModeledSecondsTracked) {
  const Csr train = testing::random_csr(30, 30, 0.2, 31);
  AlsOptions o = opts();
  o.functional = false;
  devsim::Device device(devsim::k20c());
  CumfLikeAls cumf(train, o, device);
  cumf.run_iteration();
  EXPECT_GT(cumf.modeled_seconds(), 0.0);
}

TEST(CumfLike, RejectsKAboveTileWidth) {
  const Csr train = testing::random_csr(10, 10, 0.3, 32);
  AlsOptions o = opts();
  o.k = 128;  // beyond the library's k=100 tuning target
  devsim::Device device(devsim::k20c());
  EXPECT_THROW(CumfLikeAls(train, o, device), Error);
}

TEST(CumfLike, PaysLibraryLaunchOverheads) {
  // Many library-kernel launches: overhead must exceed a single fused
  // launch's overhead noticeably on a tiny dataset.
  const Csr train = testing::random_csr(20, 20, 0.2, 33);
  AlsOptions o = opts();
  o.iterations = 1;
  o.functional = false;

  devsim::Device cumf_device(devsim::k20c());
  CumfLikeAls cumf(train, o, cumf_device);
  cumf.run();
  double cumf_overhead = 0;
  for (const auto& [name, s] : cumf_device.stats()) {
    cumf_overhead += s.time.overhead_s;
  }

  devsim::Device ours_device(devsim::k20c());
  AlsSolver ours(train, o, AlsVariant::batch_local_reg(), ours_device);
  ours.run({});
  double ours_overhead = 0;
  for (const auto& [name, s] : ours_device.stats()) {
    ours_overhead += s.time.overhead_s;
  }
  EXPECT_GT(cumf_overhead, 2.0 * ours_overhead);
}

}  // namespace
}  // namespace alsmf
