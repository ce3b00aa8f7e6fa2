#include "ocl/kernel_flavors.hpp"

namespace alsmf::ocl {

std::vector<KernelFlavor> enumerate_kernel_flavors(const KernelConfig& c) {
  std::vector<KernelFlavor> flavors;

  const auto add_batched = [&](StoragePrecision sp) {
    KernelConfig fc = c;
    fc.storage = sp;
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      KernelFlavor f;
      f.batched = true;
      f.variant = AlsVariant::from_mask(mask);
      f.storage = sp;
      f.name = kernel_name(f.variant, sp);
      f.source = batched_kernel_source(f.variant, fc);
      flavors.push_back(std::move(f));
    }
  };

  // The flat baseline is kept exact: normalize the knob the enumeration
  // owns so a caller's storage cannot leak into its preamble text (the
  // CRC-pinned source is canonical).
  KernelConfig flat_c = c;
  flat_c.storage = StoragePrecision::kFp32;

  KernelFlavor flat;
  flat.name = "als_update_flat";
  flat.source = flat_kernel_source(flat_c);
  flat.variant = AlsVariant::flat_baseline();
  flavors.push_back(std::move(flat));

  add_batched(StoragePrecision::kFp32);
  add_batched(StoragePrecision::kFp16);
  add_batched(StoragePrecision::kBf16);

  return flavors;
}

}  // namespace alsmf::ocl
