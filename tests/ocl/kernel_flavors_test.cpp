// Invariants of the single kernel-flavor enumeration every sweep derives
// its list from (golden CRCs, deep lint, verifier, checked execution,
// precision certification, file export). A drifted order or a silently
// dropped family here would desynchronize all of those gates at once.
#include "ocl/kernel_flavors.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace alsmf::ocl {
namespace {

TEST(KernelFlavors, FlavorsInPinnedOrder) {
  const std::vector<KernelFlavor> flavors =
      enumerate_kernel_flavors(KernelConfig{});
  ASSERT_EQ(flavors.size(), 3 * AlsVariant::kVariantCount + 1);
  // Pinned sweep order: flat, 8 fp32, 8 fp16, 8 bf16.
  EXPECT_EQ(flavors[0].name, "als_update_flat");
  EXPECT_EQ(flavors[1].name, "als_update_batch");
  EXPECT_EQ(flavors[9].name, "als_update_batch_f16");
  EXPECT_EQ(flavors[17].name, "als_update_batch_bf16");
  EXPECT_EQ(flavors[24].name, "als_update_batch_local_reg_vec_bf16");
}

TEST(KernelFlavors, NamesUniqueAndPresentInSource) {
  std::set<std::string> names;
  for (const KernelFlavor& f : enumerate_kernel_flavors(KernelConfig{})) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
    EXPECT_NE(f.source.find("__kernel void " + f.name + "("),
              std::string::npos)
        << f.name << " source does not define its own entry point";
  }
}

TEST(KernelFlavors, MetadataMatchesNameSuffixes) {
  for (const KernelFlavor& f : enumerate_kernel_flavors(KernelConfig{})) {
    const bool is_f16 = f.name.size() > 4 &&
                        f.name.rfind("_f16") == f.name.size() - 4;
    const bool is_bf16 = f.name.size() > 5 &&
                         f.name.rfind("_bf16") == f.name.size() - 5;
    EXPECT_EQ(f.storage == StoragePrecision::kFp16, is_f16) << f.name;
    EXPECT_EQ(f.storage == StoragePrecision::kBf16, is_bf16) << f.name;
    if (f.storage != StoragePrecision::kFp32) {
      // Only the batched variants have narrow flavors: flat is a
      // kept-exact comparison baseline.
      EXPECT_TRUE(f.batched) << f.name;
    }
    const bool is_flat = f.name.rfind("als_update_flat", 0) == 0;
    EXPECT_EQ(f.batched, !is_flat) << f.name;
  }
}

TEST(KernelFlavors, ConfigStorageIsOverriddenPerFlavor) {
  // A caller's storage must not leak into the enumeration: the sweep
  // covers all flavor families regardless of the passed config.
  KernelConfig c;
  c.storage = StoragePrecision::kFp16;
  const auto biased = enumerate_kernel_flavors(c);
  const auto plain = enumerate_kernel_flavors(KernelConfig{});
  ASSERT_EQ(biased.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(biased[i].name, plain[i].name);
    EXPECT_EQ(biased[i].source, plain[i].source);
  }
}

}  // namespace
}  // namespace alsmf::ocl
