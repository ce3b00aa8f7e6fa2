// Golden-hash pinning of the kernel generator's output (what export_kernels
// writes): an unreviewed byte change to any emitted OpenCL source fails
// here. The sources are the deployment artifact — drift must be deliberate.
//
// The flavor list comes from enumerate_kernel_flavors, so a new flavor
// family fails the count assertion below until its hashes are pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ocl/kernel_flavors.hpp"
#include "robust/crc32.hpp"
#include "testing/golden.hpp"

namespace alsmf::ocl {
namespace {

// CRC-32 (robust/crc32.hpp) of each generated source at the default
// configuration (k=10, WS=32, TILE_ROWS=256, float compute), in the pinned
// sweep order: flat, the 8 batched variants, then the 8 batched variants ×
// {fp16, bf16} storage.
//
// Regenerating after a DELIBERATE generator change: run the test; each
// mismatch prints the new hash in this table's format — paste it here and
// re-review the emitted source (`build/examples/export_kernels --out DIR`
// writes the .cl files for inspection).
const std::vector<std::pair<std::string, std::uint32_t>> kGolden = {
    {"als_update_flat", 0x79497cc7u},
    {"als_update_batch", 0x457af81du},
    {"als_update_batch_reg", 0x1a2ac42du},
    {"als_update_batch_local", 0x22139236u},
    {"als_update_batch_local_reg", 0xa1c374ffu},
    {"als_update_batch_vec", 0x019dcfb7u},
    {"als_update_batch_reg_vec", 0xc6b2d618u},
    {"als_update_batch_local_vec", 0x5ca36e84u},
    {"als_update_batch_local_reg_vec", 0x819b91c6u},
    {"als_update_batch_f16", 0x44514c86u},
    {"als_update_batch_reg_f16", 0x31c41c56u},
    {"als_update_batch_local_f16", 0x22fa4b5au},
    {"als_update_batch_local_reg_f16", 0x6fad23f0u},
    {"als_update_batch_vec_f16", 0x359ca92au},
    {"als_update_batch_reg_vec_f16", 0xef0ec997u},
    {"als_update_batch_local_vec_f16", 0x7443438bu},
    {"als_update_batch_local_reg_vec_f16", 0x8c4fa39eu},
    {"als_update_batch_bf16", 0x5b4e7a6du},
    {"als_update_batch_reg_bf16", 0xe8f04c90u},
    {"als_update_batch_local_bf16", 0x2b0fadb3u},
    {"als_update_batch_local_reg_bf16", 0xe08ac177u},
    {"als_update_batch_vec_bf16", 0x81985c5au},
    {"als_update_batch_reg_vec_bf16", 0x37e4ed81u},
    {"als_update_batch_local_vec_bf16", 0x8b872a61u},
    {"als_update_batch_local_reg_vec_bf16", 0x83f2589du},
};

constexpr char kRegen[] = "export_kernels --out <dir>";

TEST(GoldenKernels, EveryGeneratedSourceMatchesItsPinnedHash) {
  const KernelConfig c;  // defaults = what export_kernels emits
  const std::vector<KernelFlavor> flavors = enumerate_kernel_flavors(c);
  // flat + 8 fp32 + 8 fp16 + 8 bf16.
  ASSERT_EQ(kGolden.size(), 3 * AlsVariant::kVariantCount + 1)
      << "a kernel flavor family was added or removed: extend kGolden";
  ASSERT_EQ(flavors.size(), kGolden.size());
  for (std::size_t i = 0; i < flavors.size(); ++i) {
    // The table is in enumeration order, so a reordered sweep fails loudly
    // instead of silently pinning the wrong source to a name.
    ASSERT_EQ(flavors[i].name, kGolden[i].first) << "flavor order drifted";
    testing::expect_golden_crc(flavors[i].name, flavors[i].source,
                               kGolden[i].second, kRegen);
  }
}

TEST(GoldenKernels, HashesAreConfigSensitive) {
  // Sanity of the pinning itself: a different build configuration must not
  // collide with the golden hashes (k and WS are baked into the preamble).
  KernelConfig c;
  c.k = 12;
  std::map<std::string, std::uint32_t> want(kGolden.begin(), kGolden.end());
  for (const KernelFlavor& f : enumerate_kernel_flavors(c)) {
    EXPECT_NE(robust::crc32(f.source.data(), f.source.size()), want.at(f.name))
        << f.name;
  }
}

}  // namespace
}  // namespace alsmf::ocl
