// The ALS verification contracts: each generated kernel gets the contract
// of its storage format. (That every generated flavor verifies with zero
// unprovable references and zero race findings is the certificate's
// verifier leg, tests/ocl/certify_kernels_test.cpp.)
#include <gtest/gtest.h>

#include <string>

#include "als/certify_kernels.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf {
namespace {

TEST(Verify, ContractSelectionFollowsStorageFormat) {
  namespace az = ocl::analyze;
  const ocl::KernelConfig kc;
  {
    const auto irs = az::lower_kernels(
        az::parse_translation_unit(ocl::sell_kernel_source(kc)));
    ASSERT_EQ(irs.size(), 1u);
    const auto ct = als_kernel_contract(irs[0]);
    EXPECT_TRUE(ct.buffers.count("slice_ptr"));
    EXPECT_TRUE(ct.buffers.at("perm").injective);
    EXPECT_TRUE(ct.has_group_upper);
  }
  {
    const auto irs = az::lower_kernels(
        az::parse_translation_unit(ocl::flat_kernel_source(kc)));
    ASSERT_EQ(irs.size(), 1u);
    const auto ct = als_kernel_contract(irs[0]);
    EXPECT_TRUE(ct.buffers.count("row_ptr"));
    EXPECT_TRUE(ct.buffers.at("row_ptr").offsets);
    EXPECT_FALSE(ct.buffers.count("slice_ptr"));
  }
}

}  // namespace
}  // namespace alsmf
