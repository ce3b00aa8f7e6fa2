// Static certification sweep + dynamic shadow witness: every generated
// flavor certifies under the ALS operating assumptions, and on the narrow
// (fp16/bf16) flavors the static worst-case error bound dominates the
// divergence a real (interpreted) execution observes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ocl/analyze/precision/precision.hpp"
#include "ocl/analyze/precision/shadow.hpp"
#include "ocl/kernel_flavors.hpp"

namespace alsmf::ocl {
namespace {

namespace prec = analyze::precision;

TEST(PrecisionCertify, EveryGeneratedFlavorCertifies) {
  const prec::PrecisionAssumptions as;
  for (const KernelFlavor& f : enumerate_kernel_flavors(KernelConfig{})) {
    const std::vector<prec::PrecisionReport> reports =
        prec::analyze_source_precision(f.source, as);
    ASSERT_EQ(reports.size(), 1u) << f.name;
    const prec::PrecisionReport& r = reports[0];
    EXPECT_EQ(r.kernel, f.name);
    EXPECT_TRUE(r.certified) << f.name << ": " << prec::to_json(r);
    for (const auto& finding : r.findings) {
      EXPECT_FALSE(prec::gates_certification(finding.kind))
          << f.name << ": " << finding.message;
    }
    if (f.storage == StoragePrecision::kFp16) {
      EXPECT_EQ(r.storage, "fp16") << f.name;
      // FTZ storage makes subnormal-flush points expected (informational).
      EXPECT_GT(r.subnormal_flush_points, 0) << f.name;
    } else if (f.storage == StoragePrecision::kBf16) {
      EXPECT_EQ(r.storage, "bf16") << f.name;
    } else {
      EXPECT_EQ(r.storage, "fp32") << f.name;
    }
    if (f.batched) {
      EXPECT_TRUE(r.solve_contract_applied) << f.name;
    }
    // Narrow storage must carry a nonzero, finite error bound at the store.
    if (f.storage != StoragePrecision::kFp32) {
      EXPECT_GT(r.output.err, 0.0) << f.name;
      EXPECT_TRUE(std::isfinite(r.output.err)) << f.name;
    }
  }
}

TEST(PrecisionCertify, Bf16BoundExceedsFp16BoundAtSameVariant) {
  // Same kernel structure, coarser mantissa: the bf16 certificate's error
  // bound must be strictly larger than the fp16 one (both finite).
  const prec::PrecisionAssumptions as;
  const auto flavors = enumerate_kernel_flavors(KernelConfig{});
  double f16_err = 0, bf16_err = 0;
  for (const KernelFlavor& f : flavors) {
    if (f.name == "als_update_batch_local_reg_f16") {
      f16_err = prec::analyze_source_precision(f.source, as)[0].output.err;
    }
    if (f.name == "als_update_batch_local_reg_bf16") {
      bf16_err = prec::analyze_source_precision(f.source, as)[0].output.err;
    }
  }
  ASSERT_GT(f16_err, 0.0);
  ASSERT_GT(bf16_err, 0.0);
  EXPECT_GT(bf16_err, f16_err);
}

TEST(PrecisionCertify, StaticBoundDominatesObservedDivergence) {
  // The soundness leg: on a witness problem inside the assumptions, the
  // observed shadow-vs-exact divergence never exceeds the static bound.
  // A spread of narrow flavors (plain / staged / vectorized, both formats)
  // keeps the test fast while covering every codegen shape.
  const std::vector<std::string> picks = {
      "als_update_batch_f16",
      "als_update_batch_local_reg_f16",
      "als_update_batch_local_reg_vec_f16",
      "als_update_batch_bf16",
      "als_update_batch_local_vec_bf16",
  };
  const prec::PrecisionAssumptions as;
  prec::ShadowWitnessConfig wc;
  wc.assumptions = as;
  for (const KernelFlavor& f : enumerate_kernel_flavors(KernelConfig{})) {
    if (std::find(picks.begin(), picks.end(), f.name) == picks.end()) {
      continue;
    }
    const prec::PrecisionReport report =
        prec::analyze_source_precision(f.source, as)[0];
    const prec::ShadowWitness w =
        prec::run_shadow_witness(f.source, f.name, f.storage, wc);
    ASSERT_TRUE(w.ran) << f.name;
    EXPECT_FALSE(w.overflow_observed) << f.name;
    // Quantization on a nontrivial problem must actually perturb the
    // output (a zero divergence would mean the shadow leg is a no-op)...
    EXPECT_GT(w.observed_err, 0.0) << f.name;
    // ...and stay under the certificate's worst-case bound.
    EXPECT_LE(w.observed_err, report.output.err) << f.name;
    // The witness factors stay inside the solve contract's ‖x‖ ceiling.
    EXPECT_LE(w.max_exact,
              as.rating_bound * std::sqrt(as.omega_max / as.lambda_min))
        << f.name;
  }
}

TEST(PrecisionCertify, Fp32ShadowLegIsExact) {
  // With fp32 "storage" the quantizer is the identity: the two legs must
  // agree bitwise, pinning that observed_err measures quantization only.
  const auto flavors = enumerate_kernel_flavors(KernelConfig{});
  for (const KernelFlavor& f : flavors) {
    if (f.name != "als_update_batch") continue;
    const prec::ShadowWitness w = prec::run_shadow_witness(
        f.source, f.name, StoragePrecision::kFp32, prec::ShadowWitnessConfig{});
    ASSERT_TRUE(w.ran);
    EXPECT_EQ(w.observed_err, 0.0);
    EXPECT_FALSE(w.overflow_observed);
  }
}

TEST(PrecisionCertify, TighterAssumptionsStillCertify) {
  // A smaller operating envelope can only shrink the bounds: sanity that
  // the certificate is monotone in the assumptions.
  const prec::PrecisionAssumptions wide;
  prec::PrecisionAssumptions tight;
  tight.omega_max = 256;
  for (const KernelFlavor& f : enumerate_kernel_flavors(KernelConfig{})) {
    const auto reports = prec::analyze_source_precision(f.source, tight);
    ASSERT_EQ(reports.size(), 1u) << f.name;
    EXPECT_TRUE(reports[0].certified) << f.name;
    EXPECT_LE(reports[0].output.err,
              prec::analyze_source_precision(f.source, wide)[0].output.err)
        << f.name;
  }
}

}  // namespace
}  // namespace alsmf::ocl
