// The ALS verification contract: every generated kernel reads CSR storage.
// (That every generated flavor verifies with zero unprovable references and
// zero race findings is the certificate's verifier leg,
// tests/ocl/certify_kernels_test.cpp.)
#include <gtest/gtest.h>

#include <string>

#include "als/certify_kernels.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf {
namespace {

TEST(Verify, FlatKernelGetsCsrRowPtrContract) {
  namespace az = ocl::analyze;
  const ocl::KernelConfig kc;
  {
    const auto irs = az::lower_kernels(
        az::parse_translation_unit(ocl::flat_kernel_source(kc)));
    ASSERT_EQ(irs.size(), 1u);
    const auto ct = als_kernel_contract(irs[0]);
    EXPECT_TRUE(ct.buffers.count("row_ptr"));
    EXPECT_TRUE(ct.buffers.at("row_ptr").offsets);
  }
}

TEST(Verify, DataBoundedLoopFailsClosed) {
  // A trip count read from a buffer has no range rule: lowering rejects the
  // loop, so the kernel is reported unanalyzable instead of verified.
  const std::string src =
      "#define K 10\n"
      "#define WS 32\n"
      "__kernel void f(__global const int* len, __global float* X) {\n"
      "  const int g = get_group_id(0);\n"
      "  const int n = len[g];\n"
      "  for (int z = 0; z < n; ++z) X[z] = 0;\n"
      "}\n";
  const VerifySourceResult result = verify_kernel_source(src);
  EXPECT_FALSE(result.clean());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("line 6"), std::string::npos)
      << result.errors[0];
}

}  // namespace
}  // namespace alsmf
