#include "als/kernels.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "testing/reference.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

using devsim::Device;
using devsim::DeviceProfile;

struct Fixture {
  Csr train;
  AlsOptions options;
  Matrix x_ref, y_ref;

  Fixture() {
    train = testing::random_csr(80, 50, 0.12, 21);
    options.k = 6;
    options.lambda = 0.1f;
    options.seed = 31;
    init_factors(train.rows(), train.cols(), options, x_ref, y_ref);
  }
};

/// One X half-update through the device kernel; returns the updated X.
Matrix device_update_x(const Fixture& f, const AlsVariant& variant,
                       const DeviceProfile& profile, int group_size = 32,
                       std::size_t groups = 64) {
  Device device(profile);
  Matrix x = f.x_ref;
  Matrix y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;
  args.variant = variant;
  const auto row_solver = make_row_solver(f.options);
  args.row_solver = row_solver.get();
  launch_update(device, "update_x", args, groups, group_size, true);
  return x;
}

Matrix reference_update_x(const Fixture& f) {
  Matrix x = f.x_ref;
  reference_half_update(f.train, f.y_ref, x, f.options);
  return x;
}

// --- Functional equivalence: every variant x device matches the reference
// bit for bit (same arithmetic in the same order). ---

using VariantDevice = std::tuple<unsigned, std::string>;

class VariantEquivalence : public ::testing::TestWithParam<VariantDevice> {};

TEST_P(VariantEquivalence, MatchesReferenceBitwise) {
  auto [mask, device_name] = GetParam();
  Fixture f;
  const Matrix expected = reference_update_x(f);
  const Matrix actual = device_update_x(f, AlsVariant::from_mask(mask),
                                        devsim::profile_by_name(device_name));
  EXPECT_EQ(expected, actual)
      << "variant " << AlsVariant::from_mask(mask).name() << " on "
      << device_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllDevices, VariantEquivalence,
    ::testing::Combine(::testing::Range(0u, AlsVariant::kVariantCount),
                       ::testing::Values("cpu", "gpu", "mic")),
    [](const ::testing::TestParamInfo<VariantDevice>& param_info) {
      std::string name =
          AlsVariant::from_mask(std::get<0>(param_info.param)).name() + "_" +
          std::get<1>(param_info.param);
      for (char& c : name) {
        if (c == '+') c = '_';  // gtest names must be identifiers
      }
      return name;
    });

TEST(FlatKernel, MatchesReferenceBitwise) {
  Fixture f;
  const Matrix expected = reference_update_x(f);
  for (const char* dev : {"cpu", "gpu"}) {
    const Matrix actual = device_update_x(f, AlsVariant::flat_baseline(),
                                          devsim::profile_by_name(dev), 64);
    EXPECT_EQ(expected, actual) << dev;
  }
}

TEST(ProductTable, LaunchPathsMatchReferenceBitwise) {
  // Three ways a launch can sum its rows, on every variant and device: a
  // table the caller built, a table launch_update builds itself, and the
  // direct accumulator for a src over the rule. Each must give the
  // reference's bits.
  Fixture f;
  ASSERT_TRUE(product_table_pays(f.options.k, f.train.cols()))
      << "the shared fixture (VariantEquivalence too) must run the table path";
  const Matrix expected = reference_update_x(f);
  ProductTable table;
  table.build(f.y_ref);

  // Enough src rows that the table would pass the budget.
  Fixture wide;
  wide.train = testing::random_csr(60, 20000, 0.002, 23);
  init_factors(wide.train.rows(), wide.train.cols(), wide.options, wide.x_ref,
               wide.y_ref);
  ASSERT_FALSE(product_table_pays(wide.options.k, wide.train.cols()));
  const Matrix expected_wide = reference_update_x(wide);

  std::vector<AlsVariant> variants{AlsVariant::flat_baseline()};
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    variants.push_back(AlsVariant::from_mask(mask));
  }
  for (const AlsVariant& variant : variants) {
    for (const char* dev : {"cpu", "gpu", "mic"}) {
      SCOPED_TRACE(variant.name() + " on " + dev);
      const DeviceProfile profile = devsim::profile_by_name(dev);
      Device device(profile);
      Matrix x = f.x_ref;
      UpdateArgs args;
      args.r = &f.train;
      args.src = &f.y_ref;
      args.dst = &x;
      args.lambda = f.options.lambda;
      args.k = f.options.k;
      args.variant = variant;
      args.products = &table;
      launch_update(device, "caller_table", args, 64, 32, true);
      EXPECT_EQ(expected, x) << "caller-built table";

      EXPECT_EQ(expected, device_update_x(f, variant, profile))
          << "table built by launch_update";
      EXPECT_EQ(expected_wide, device_update_x(wide, variant, profile))
          << "direct path";
    }
  }
}

TEST(Kernels, GroupSizeDoesNotChangeResults) {
  Fixture f;
  const Matrix expected = reference_update_x(f);
  for (int ws : {8, 16, 32, 128}) {
    const Matrix actual = device_update_x(f, AlsVariant::batch_local(),
                                          devsim::k20c(), ws);
    EXPECT_EQ(expected, actual) << "ws=" << ws;
  }
}

TEST(Kernels, GroupCountDoesNotChangeResults) {
  Fixture f;
  const Matrix expected = reference_update_x(f);
  for (std::size_t groups : {1u, 7u, 80u, 8192u}) {
    const Matrix actual = device_update_x(f, AlsVariant::batching_only(),
                                          devsim::k20c(), 32, groups);
    EXPECT_EQ(expected, actual) << "groups=" << groups;
  }
}

TEST(Kernels, AccountingOnlyLeavesFactorsUntouched) {
  Fixture f;
  Device device(devsim::k20c());
  Matrix x = f.x_ref;
  Matrix y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;
  args.variant = AlsVariant::batch_local_reg();
  const auto result =
      launch_update(device, "update_x", args, 64, 32, /*functional=*/false);
  EXPECT_EQ(x, f.x_ref);                       // untouched
  EXPECT_GT(result.counters.lane_ops_scalar, 0.0);  // but accounted
}

TEST(Kernels, AccountingIdenticalFunctionalOrNot) {
  Fixture f;
  Matrix x1 = f.x_ref, x2 = f.x_ref;
  Matrix y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.lambda = f.options.lambda;
  args.k = f.options.k;
  args.variant = AlsVariant::batch_local();

  Device d1(devsim::k20c());
  args.dst = &x1;
  const auto r1 = launch_update(d1, "u", args, 64, 32, true);
  Device d2(devsim::k20c());
  args.dst = &x2;
  const auto r2 = launch_update(d2, "u", args, 64, 32, false);
  EXPECT_DOUBLE_EQ(r1.counters.lane_ops_scalar, r2.counters.lane_ops_scalar);
  EXPECT_DOUBLE_EQ(r1.counters.global_bytes, r2.counters.global_bytes);
  EXPECT_DOUBLE_EQ(r1.counters.local_bytes, r2.counters.local_bytes);
  EXPECT_DOUBLE_EQ(r1.time.total_s(), r2.time.total_s());
}

// --- Accounting semantics ---

TEST(Kernels, LocalVariantMovesTrafficOnChip) {
  Fixture f;
  Device d_plain(devsim::k20c());
  Device d_local(devsim::k20c());
  Matrix x = f.x_ref, y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;

  args.variant = AlsVariant::batching_only();
  const auto plain = launch_update(d_plain, "u", args, 64, 32, false);
  args.variant = AlsVariant::batch_local();
  const auto local = launch_update(d_local, "u", args, 64, 32, false);

  EXPECT_GT(local.counters.local_bytes, plain.counters.local_bytes);
  EXPECT_LT(local.counters.scattered_accesses,
            plain.counters.scattered_accesses);
}

TEST(Kernels, RegisterVariantRemovesSpillTraffic) {
  Fixture f;
  Matrix x = f.x_ref, y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;

  Device d1(devsim::k20c());
  args.variant = AlsVariant::batching_only();
  const auto noreg = launch_update(d1, "u", args, 64, 32, false);
  Device d2(devsim::k20c());
  args.variant = AlsVariant::from_mask(1);  // +reg
  const auto reg = launch_update(d2, "u", args, 64, 32, false);

  EXPECT_GT(noreg.counters.spill_bytes, 0.0);
  EXPECT_DOUBLE_EQ(reg.counters.spill_bytes, 0.0);
  EXPECT_LT(reg.counters.register_demand_peak,
            noreg.counters.register_demand_peak);
}

TEST(Kernels, VectorVariantMovesOpsToVectorCounter) {
  Fixture f;
  Matrix x = f.x_ref, y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;

  Device d(devsim::xeon_e5_2670_dual());
  args.variant = AlsVariant::batch_vectors();
  const auto vec = launch_update(d, "u", args, 64, 32, false);
  EXPECT_GT(vec.counters.lane_ops_vector, 0.0);
}

TEST(Kernels, FlatDivergencePenaltyGrowsWithSkew) {
  // Same nnz, one balanced and one skewed; flat GPU ops must be larger on
  // the skewed matrix (warp-max padding).
  Coo balanced(64, 64);
  for (index_t u = 0; u < 64; ++u) {
    for (index_t c = 0; c < 8; ++c) balanced.add(u, c, 1.0f);
  }
  Coo skewed(64, 520);
  for (index_t c = 0; c < 449; ++c) skewed.add(0, c, 1.0f);
  for (index_t u = 1; u < 64; ++u) skewed.add(u, 0, 1.0f);
  const Csr b = coo_to_csr(balanced);
  const Csr s = coo_to_csr(skewed);
  ASSERT_EQ(b.nnz(), s.nnz());

  AlsOptions o;
  o.k = 4;
  auto ops_for = [&](const Csr& r, const Matrix& src) {
    Device device(devsim::k20c());
    Matrix dst(r.rows(), o.k);
    UpdateArgs args;
    args.r = &r;
    args.src = &src;
    args.dst = &dst;
    args.lambda = o.lambda;
    args.k = o.k;
    args.variant = AlsVariant::flat_baseline();
    return launch_update(device, "u", args, 0, 32, false)
        .counters.lane_ops_scalar;
  };
  Matrix src_b(64, o.k, 0.1f), src_s(520, o.k, 0.1f);
  EXPECT_GT(ops_for(s, src_s), 2.0 * ops_for(b, src_b));
}

TEST(Kernels, BatchedIsDivergenceFree) {
  // The batched mapping's compute ops depend only on total nnz, not skew.
  Coo balanced(64, 64);
  for (index_t u = 0; u < 64; ++u) {
    for (index_t c = 0; c < 8; ++c) balanced.add(u, c, 1.0f);
  }
  Coo skewed(64, 520);
  for (index_t c = 0; c < 449; ++c) skewed.add(0, c, 1.0f);
  for (index_t u = 1; u < 64; ++u) skewed.add(u, 0, 1.0f);
  const Csr b = coo_to_csr(balanced);
  const Csr s = coo_to_csr(skewed);

  AlsOptions o;
  o.k = 4;
  auto ops_for = [&](const Csr& r, index_t src_rows) {
    Device device(devsim::k20c());
    Matrix src(src_rows, o.k, 0.1f);
    Matrix dst(r.rows(), o.k);
    UpdateArgs args;
    args.r = &r;
    args.src = &src;
    args.dst = &dst;
    args.lambda = o.lambda;
    args.k = o.k;
    args.variant = AlsVariant::batching_only();
    return launch_update(device, "u", args, 64, 32, false)
        .counters.lane_ops_scalar;
  };
  EXPECT_DOUBLE_EQ(ops_for(b, 64), ops_for(s, 520));
}

TEST(Kernels, RegLocalPenaltyOnlyOnCpuMic) {
  Fixture f;
  Matrix x = f.x_ref, y = f.y_ref;
  UpdateArgs args;
  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.lambda = f.options.lambda;
  args.k = f.options.k;

  // On CPU, local+reg must cost more scalar ops than local alone.
  Device c1(devsim::xeon_e5_2670_dual());
  args.variant = AlsVariant::batch_local();
  const auto local = launch_update(c1, "u", args, 64, 32, false);
  Device c2(devsim::xeon_e5_2670_dual());
  args.variant = AlsVariant::batch_local_reg();
  const auto local_reg = launch_update(c2, "u", args, 64, 32, false);
  EXPECT_GT(local_reg.counters.lane_ops_scalar,
            local.counters.lane_ops_scalar);

  // On GPU, no such penalty: compute time of local+reg <= local.
  Device g1(devsim::k20c());
  args.variant = AlsVariant::batch_local();
  const auto glocal = launch_update(g1, "u", args, 64, 32, false);
  Device g2(devsim::k20c());
  args.variant = AlsVariant::batch_local_reg();
  const auto glocal_reg = launch_update(g2, "u", args, 64, 32, false);
  EXPECT_LE(glocal_reg.time.total_s(), glocal.time.total_s());
}

TEST(Kernels, InvalidArgsRejected) {
  Fixture f;
  Device device(devsim::k20c());
  Matrix x = f.x_ref, y = f.y_ref;
  UpdateArgs args;  // null pointers
  EXPECT_THROW(launch_update(device, "u", args, 64, 32, true), Error);

  args.r = &f.train;
  args.src = &y;
  args.dst = &x;
  args.k = 99;  // mismatched k
  EXPECT_THROW(launch_update(device, "u", args, 64, 32, true), Error);

  // src has fewer rows than r has columns. Unchecked launches declare no
  // per-rating gathers, so this check is what keeps them in bounds.
  args.k = f.options.k;
  Matrix short_src(f.train.cols() - 1, f.options.k);
  args.src = &short_src;
  EXPECT_THROW(launch_update(device, "u", args, 64, 32, true), Error);
  args.variant = AlsVariant::flat_baseline();
  EXPECT_THROW(launch_update(device, "u", args, 64, 32, true), Error);
}

}  // namespace
}  // namespace alsmf
