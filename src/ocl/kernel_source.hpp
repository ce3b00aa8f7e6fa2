// OpenCL C kernel sources for the ALS update — the code a deployment on
// real OpenCL hardware (CPU / GPU / MIC / FPGA) would build, one source
// per code variant of §III-D. The devsim substrate mirrors these kernels'
// structure exactly (same loops, same staging, same accumulators), so the
// modeled results transfer; on a machine with an OpenCL runtime these
// sources are what you feed clCreateProgramWithSource.
//
// Sources are generated from the variant toggles so the 8 variants stay
// structurally consistent with each other and with the C++ kernels — the
// generator *is* the documentation of what each optimization changes.
#pragma once

#include <string>

#include "als/options.hpp"

namespace alsmf::ocl {

/// Build options for kernel generation.
struct KernelConfig {
  int k = 10;              ///< latent factor (compile-time constant: K)
  int group_size = 32;     ///< work-group size (compile-time constant: WS)
  int tile_rows = 256;     ///< local-memory staging tile rows (local variant)
  bool use_double = false; ///< emit double-precision kernels
  /// Storage width of the factor/rating buffers (the mixed-precision axis):
  /// fp16/bf16 emit a `storage_t` typedef and narrow the values/Y/X
  /// parameters while every accumulator stays real_t. Only the batched
  /// variants have narrow flavors — the flat baseline is a comparison
  /// point we keep exact.
  StoragePrecision storage = StoragePrecision::kFp32;
};

/// OpenCL C source of the thread-batched update kernel for `variant`
/// (one work-group per row; §III-B plus the §III-C toggles).
std::string batched_kernel_source(const AlsVariant& variant,
                                  const KernelConfig& config);

/// OpenCL C source of the flat SAC'15 baseline kernel (one work-item per
/// row, Algorithm 2).
std::string flat_kernel_source(const KernelConfig& config);

/// The preamble shared by all kernels (types, Cholesky helpers).
std::string kernel_preamble(const KernelConfig& config);

/// Recommended clBuildProgram options string for a config.
std::string build_options(const KernelConfig& config);

/// Kernel entry-point name for a variant ("als_update_batch_local_reg"...).
std::string kernel_name(const AlsVariant& variant);

/// Entry-point name for a variant × storage pair; fp16 appends "_f16",
/// bf16 appends "_bf16".
std::string kernel_name(const AlsVariant& variant, StoragePrecision storage);

/// Writes all 25 kernels (flat + 8 batched variants × {fp32, fp16, bf16}
/// storage) into a directory, one .cl file each; returns the number
/// written. The set is enumerate_kernel_flavors (ocl/kernel_flavors.hpp).
int write_kernel_files(const std::string& directory,
                       const KernelConfig& config);

/// A complete, self-contained OpenCL *host* program (C, OpenCL 1.2 API)
/// that loads a generated kernel file, uploads a CSR matrix in the
/// paper's text format, runs the alternating updates, and reports timing
/// — everything a user with real OpenCL hardware needs besides a
/// compiler. Pairs with write_kernel_files.
std::string host_driver_source(const AlsVariant& variant,
                               const KernelConfig& config);

/// Writes the host driver next to the kernels; returns its path.
std::string write_host_driver(const std::string& directory,
                              const AlsVariant& variant,
                              const KernelConfig& config);

}  // namespace alsmf::ocl
