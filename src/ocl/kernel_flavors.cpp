#include "ocl/kernel_flavors.hpp"

namespace alsmf::ocl {

std::vector<KernelFlavor> enumerate_kernel_flavors(const KernelConfig& c) {
  std::vector<KernelFlavor> flavors;

  const auto add_batched = [&](RowSolverKind rs, StoragePrecision sp) {
    KernelConfig fc = c;
    fc.row_solver = rs;
    fc.storage = sp;
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      KernelFlavor f;
      f.batched = true;
      f.variant = AlsVariant::from_mask(mask);
      f.row_solver = rs;
      f.storage = sp;
      f.name = kernel_name(f.variant, rs, sp);
      f.source = batched_kernel_source(f.variant, fc);
      flavors.push_back(std::move(f));
    }
  };

  // The flat baseline is kept exact at the default S3: normalize the knobs
  // the enumeration owns so a caller's row_solver/storage cannot leak into
  // its preamble text (the CRC-pinned source is canonical).
  KernelConfig flat_c = c;
  flat_c.row_solver = RowSolverKind::kCholesky;
  flat_c.storage = StoragePrecision::kFp32;

  KernelFlavor flat;
  flat.name = "als_update_flat";
  flat.source = flat_kernel_source(flat_c);
  flat.variant = AlsVariant::flat_baseline();
  flavors.push_back(std::move(flat));

  add_batched(RowSolverKind::kCholesky, StoragePrecision::kFp32);
  add_batched(RowSolverKind::kCg, StoragePrecision::kFp32);

  // Mixed-precision storage flavors: cholesky only — the CG iterate's value
  // range is not certifiable against narrow storage (kernel_source.hpp).
  add_batched(RowSolverKind::kCholesky, StoragePrecision::kFp16);
  add_batched(RowSolverKind::kCholesky, StoragePrecision::kBf16);

  return flavors;
}

}  // namespace alsmf::ocl
