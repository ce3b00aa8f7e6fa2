// Parameterized property sweeps over the cost model and the ALS kernels'
// accounting: invariants that must hold on every device profile and
// variant, independent of calibration constants.
#include <gtest/gtest.h>

#include <tuple>

#include "als/kernels.hpp"
#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

using devsim::DeviceProfile;

std::vector<DeviceProfile> all_profiles() {
  return {devsim::k20c(), devsim::xeon_e5_2670_dual(), devsim::xeon_phi_31sp()};
}

Csr sized_matrix(nnz_t nnz, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.users = 256;
  spec.items = 200;
  spec.nnz = nnz;
  spec.seed = seed;
  return coo_to_csr(generate_synthetic(spec));
}

double modeled_time(const Csr& train, const AlsVariant& v,
                    const DeviceProfile& p, int k = 10, int ws = 32) {
  devsim::Device device(p);
  Matrix src(train.cols(), k, 0.1f);
  Matrix dst(train.rows(), k);
  UpdateArgs args;
  args.r = &train;
  args.src = &src;
  args.dst = &dst;
  args.lambda = 0.1f;
  args.k = k;
  args.variant = v;
  return launch_update(device, "u", args, 256, ws, false).time.total_s();
}

using ProfileVariant = std::tuple<int, unsigned>;  // profile idx, mask

class EveryProfileVariant : public ::testing::TestWithParam<ProfileVariant> {
 protected:
  DeviceProfile profile() const {
    return all_profiles()[static_cast<std::size_t>(std::get<0>(GetParam()))];
  }
  AlsVariant variant() const {
    return AlsVariant::from_mask(std::get<1>(GetParam()));
  }
};

TEST_P(EveryProfileVariant, MoreNonzerosNeverFaster) {
  const Csr small = sized_matrix(3000, 200);
  const Csr big = sized_matrix(12000, 200);
  EXPECT_LE(modeled_time(small, variant(), profile()),
            modeled_time(big, variant(), profile()) * (1 + 1e-9));
}

TEST_P(EveryProfileVariant, LargerKNeverFaster) {
  const Csr train = sized_matrix(6000, 201);
  EXPECT_LE(modeled_time(train, variant(), profile(), 5),
            modeled_time(train, variant(), profile(), 20) * (1 + 1e-9));
}

TEST_P(EveryProfileVariant, TimeIsStrictlyPositive) {
  const Csr train = sized_matrix(1000, 202);
  EXPECT_GT(modeled_time(train, variant(), profile()), 0.0);
}

TEST_P(EveryProfileVariant, DoublingBandwidthNeverHurts) {
  const Csr train = sized_matrix(8000, 203);
  DeviceProfile fast = profile();
  fast.mem_bw_gbs *= 2;
  fast.cache_bw_gbs *= 2;
  EXPECT_LE(modeled_time(train, variant(), fast),
            modeled_time(train, variant(), profile()) * (1 + 1e-9));
}

TEST_P(EveryProfileVariant, DoublingComputeUnitsNeverHurts) {
  const Csr train = sized_matrix(8000, 204);
  DeviceProfile fat = profile();
  fat.compute_units *= 2;
  EXPECT_LE(modeled_time(train, variant(), fat),
            modeled_time(train, variant(), profile()) * (1 + 1e-9));
}

TEST_P(EveryProfileVariant, GroupSize128NeverBeats32) {
  // The paper's Fig. 10: oversize groups only add resident-bundle padding.
  const Csr train = sized_matrix(8000, 205);
  EXPECT_LE(modeled_time(train, variant(), profile(), 10, 32),
            modeled_time(train, variant(), profile(), 10, 128) * (1 + 1e-9));
}

std::string sweep_name(const ::testing::TestParamInfo<ProfileVariant>& info) {
  static const char* const kDevices[3] = {"gpu", "cpu", "mic"};
  std::string name = std::string(kDevices[std::get<0>(info.param)]) + "_" +
                     AlsVariant::from_mask(std::get<1>(info.param)).name();
  for (char& c : name) {
    if (c == '+') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EveryProfileVariant,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Range(0u, AlsVariant::kVariantCount)),
    sweep_name);

TEST(ModelProperties, WarmStartConvergesFasterThanCold) {
  SyntheticSpec spec;
  spec.users = 150;
  spec.items = 100;
  spec.nnz = 6000;
  spec.planted_rank = 3;
  spec.noise = 0.1;
  spec.seed = 206;
  const Csr train = coo_to_csr(generate_synthetic(spec));
  AlsOptions o;
  o.k = 5;
  o.iterations = 6;

  // Cold model after 6 iterations.
  devsim::Device d1(devsim::k20c());
  AlsSolver cold(train, o, AlsVariant::batch_local_reg(), d1);
  cold.run({});
  const double cold_loss = cold.train_loss();

  // Warm start from the cold model: a single extra iteration must be at
  // least as good (ALS is monotone) and strictly better than iteration 1
  // of a fresh run.
  devsim::Device d2(devsim::k20c());
  AlsSolver warm(train, o, AlsVariant::batch_local_reg(), d2);
  warm.set_factors(cold.x(), cold.y());
  warm.run_iteration();
  EXPECT_LE(warm.train_loss(), cold_loss * (1 + 1e-5));

  devsim::Device d3(devsim::k20c());
  AlsSolver fresh(train, o, AlsVariant::batch_local_reg(), d3);
  fresh.run_iteration();
  EXPECT_LT(warm.train_loss(), fresh.train_loss());
}

TEST(ModelProperties, SetFactorsShapeChecked) {
  const Csr train = testing::random_csr(20, 15, 0.2, 207);
  AlsOptions o;
  o.k = 4;
  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batching_only(), device);
  EXPECT_THROW(solver.set_factors(Matrix(21, 4), Matrix(15, 4)), Error);
  EXPECT_THROW(solver.set_factors(Matrix(20, 5), Matrix(15, 5)), Error);
  EXPECT_NO_THROW(solver.set_factors(Matrix(20, 4), Matrix(15, 4)));
}

}  // namespace
}  // namespace alsmf
