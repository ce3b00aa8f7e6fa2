// Defect-injection harness shared by the corpus tests (tests/ocl/defects/)
// and anything else that wants a deliberately broken generated kernel. Each
// mutation is an exact-anchor textual rewrite of generator output plus the
// defect class both checking legs (static verifier, checked interpreter)
// must flag. Anchors are full source lines with indentation, so a generator
// change that moves them fails loudly in apply_mutation instead of silently
// producing an unmutated kernel.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "devsim/check/defects.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf::testing {

struct KernelMutation {
  std::string name;    ///< corpus id, e.g. "off_by_one_gather"
  std::string kernel;  ///< entry point the mutation targets
  std::string find;    ///< exact anchor in the generated source
  std::string replace;
  devsim::check::DefectClass expected = devsim::check::DefectClass::kNone;
  /// True when the static verifier can only fail closed (kUnprovable), not
  /// prove the violation — e.g. a dropped launch guard leaves the row index
  /// unbounded rather than provably out of range.
  bool static_unprovable_only = false;
};

/// Applies one mutation, throwing if the anchor is absent (or ambiguous in
/// the sense of being absent after the first rewrite, which we don't do —
/// exactly one occurrence is replaced).
inline std::string apply_mutation(std::string source, const KernelMutation& m) {
  const std::size_t at = source.find(m.find);
  if (at == std::string::npos) {
    throw std::runtime_error("mutation '" + m.name +
                             "': anchor not found in generated kernel source");
  }
  source.replace(at, m.find.size(), m.replace);
  return source;
}

/// Generates the unmutated source the mutation targets.
inline std::string base_source(const KernelMutation& m,
                               const ocl::KernelConfig& config) {
  if (m.kernel == "als_update_flat") return ocl::flat_kernel_source(config);
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    if (ocl::kernel_name(v) == m.kernel) {
      return ocl::batched_kernel_source(v, config);
    }
  }
  throw std::runtime_error("mutation '" + m.name + "': unknown kernel '" +
                           m.kernel + "'");
}

inline std::string mutated_source(const KernelMutation& m,
                                  const ocl::KernelConfig& config) {
  return apply_mutation(base_source(m, config), m);
}

/// The corpus. Every entry must be flagged with `expected` by BOTH the
/// static verifier and checked dynamic execution (defect_corpus_test.cpp).
inline std::vector<KernelMutation> kernel_mutations() {
  using devsim::check::DefectClass;
  const std::string local_kernel =
      ocl::kernel_name(AlsVariant::batch_local());
  std::vector<KernelMutation> all;

  {
    KernelMutation m;
    m.name = "off_by_one_gather";
    m.kernel = local_kernel;
    m.find = "        const int d = col_idx[begin + base + p] * K;\n";
    m.replace = "        const int d = col_idx[begin + base + p] * K + 1;\n";
    m.expected = DefectClass::kBoundsGlobal;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "dropped_staging_barrier";
    m.kernel = local_kernel;
    m.find =
        "      }\n"
        "      barrier(CLK_LOCAL_MEM_FENCE);\n"
        "      for (int z = 0;";
    m.replace =
        "      }\n"
        "      for (int z = 0;";
    m.expected = DefectClass::kRaceIntraGroup;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "local_tile_overflow";
    m.kernel = local_kernel;
    m.find = "  __local real_t tile[TILE_ROWS * K];\n";
    m.replace = "  __local real_t tile[(TILE_ROWS - 1) * K];\n";
    m.expected = DefectClass::kBoundsLocal;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "stale_tile_read";
    m.kernel = local_kernel;
    m.find =
        "      barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    }\n";
    m.replace = "    }\n";
    m.expected = DefectClass::kRaceIntraGroup;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "aliased_output";
    m.kernel = local_kernel;
    m.find = "    for (int f = lx; f < K; f += WS) X[u * K + f] = svec[f];\n";
    m.replace =
        "    for (int f = lx; f < K; f += WS) Y[u * K + f] = svec[f];\n";
    m.expected = DefectClass::kRaceCrossGroup;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "dropped_launch_guard";
    m.kernel = "als_update_flat";
    m.find = "  if (u >= rows) return;\n";
    m.replace = "";
    m.expected = DefectClass::kBoundsGlobal;
    m.static_unprovable_only = true;
    all.push_back(m);
  }
  {
    KernelMutation m;
    m.name = "reduction_off_by_one";
    m.kernel = local_kernel;
    m.find = "      svec[lx] = rsum;\n";
    m.replace = "      svec[lx + 1] = rsum;\n";
    m.expected = DefectClass::kBoundsLocal;
    all.push_back(m);
  }
  return all;
}

}  // namespace alsmf::testing
