// Code-variant selection (§III-D): pick the best of the 8 batched variants
// for an (architecture, dataset) pair.
//
// Three selectors are provided:
//  * empirical  — run every variant in accounting-only mode and pick the
//    one with the smallest modeled time (the paper's approach);
//  * heuristic  — a feature-based rule distilled from the paper's findings
//    (the "machine-learning based approach" the paper leaves as future
//    work, here as an interpretable decision rule);
//  * static     — zero-run ranking: each variant's generated OpenCL source
//    is parsed and lowered to the access IR (ocl/analyze/), priced for the
//    dataset's shape statistics, and pushed through the same devsim cost
//    model — no training iterations at all.
#pragma once

#include <string>
#include <vector>

#include "als/options.hpp"
#include "devsim/profile.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

struct VariantScore {
  AlsVariant variant;
  double modeled_seconds = 0;
};

/// Scores all 8 batched variants on `train` with one accounting-only run
/// each (options.iterations iterations). Sorted ascending by time.
std::vector<VariantScore> score_variants(const Csr& train,
                                         const AlsOptions& options,
                                         const devsim::DeviceProfile& profile);

/// Empirical selector: best entry of score_variants.
AlsVariant select_variant_empirical(const Csr& train, const AlsOptions& options,
                                    const devsim::DeviceProfile& profile);

/// Scores all 8 batched variants without running any of them: the generated
/// kernel sources are statically analyzed (ocl/analyze/static_profile.hpp),
/// the predicted LaunchCounters of both half-updates (X over R, Y over Rᵀ)
/// are priced by the devsim cost model, and the total is scaled to
/// options.iterations. Only the dataset *statistics* (row counts, nonzero
/// counts) are consulted — never the values. Sorted ascending by time.
std::vector<VariantScore> score_variants_static(
    const Csr& train, const AlsOptions& options,
    const devsim::DeviceProfile& profile);

/// Static selector: best entry of score_variants_static. The agreement
/// contract (enforced by tests) is that the empirically best variant ranks
/// in the static top-2 on every built-in device profile.
AlsVariant select_variant_static(const Csr& train, const AlsOptions& options,
                                 const devsim::DeviceProfile& profile);

/// Feature-based heuristic distilled from the paper's evaluation:
///  * GPU  → local + registers (Fig. 6: biggest win, up to 2.6×),
///  * CPU/MIC → local only (registers+local degrades there, §V-B);
///    vectors added when the kernel is compute-bound enough to benefit.
AlsVariant select_variant_heuristic(const Csr& train, const AlsOptions& options,
                                    const devsim::DeviceProfile& profile);

/// Recommended group size: the smallest multiple of the bundle width that
/// is >= k on GPUs (§V-E), the bundle width itself on CPU/MIC.
int recommend_group_size(int k, const devsim::DeviceProfile& profile);

}  // namespace alsmf
