// The single enumeration of every generated kernel flavor. Everything that
// claims to cover "all generated kernels" — golden CRC pinning, the static
// legs of the kernel certificate (deep lint, static profiles, the
// bounds/race verifier and precision certification; als/certify_kernels.hpp)
// and file export — derives its list from enumerate_kernel_flavors, so
// adding a flavor family here enrolls it in every gate at once and no gate
// can silently skip one.
#pragma once

#include <string>
#include <vector>

#include "ocl/kernel_source.hpp"

namespace alsmf::ocl {

/// One generated kernel flavor at a concrete KernelConfig.
struct KernelFlavor {
  std::string name;    ///< kernel entry point == exported file stem
  std::string source;  ///< the generated OpenCL C
  bool batched = false;
  AlsVariant variant;  ///< meaningful when batched
  StoragePrecision storage = StoragePrecision::kFp32;
};

/// Every generated flavor at `config`, in the pinned sweep order:
/// flat, the 8 batched variants, then the 8 batched variants × {fp16,
/// bf16} storage (25 total). `config.storage` is overridden per flavor;
/// the remaining fields (k, group size, tile rows) apply to all of them.
std::vector<KernelFlavor> enumerate_kernel_flavors(const KernelConfig& config);

}  // namespace alsmf::ocl
