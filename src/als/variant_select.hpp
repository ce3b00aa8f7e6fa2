// Configuration selection (§III-D, §V-E): pick the code variant, work-group
// size and staging tile to run for an (architecture, dataset) pair.
//
// select_config is the one selector. Two rankers sit beside it:
//  * score_variants        — runs each of the 8 variants in accounting-only
//    mode (the paper's empirical measurement); the oracle that the bench
//    figures and the tests compare against;
//  * score_variants_static — zero-run ranking: each variant's generated
//    OpenCL source is parsed and lowered to the access IR (ocl/analyze/),
//    priced for the dataset's shape statistics, and pushed through the same
//    devsim cost model. It is the first step of select_config.
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

/// Scores all 8 batched variants without running any of them: the generated
/// kernel sources are statically analyzed (ocl/analyze/static_profile.hpp),
/// the predicted LaunchCounters of both half-updates (X over R, Y over Rᵀ)
/// are priced by the devsim cost model, and the total is scaled to
/// options.iterations. Only the dataset *statistics* (row counts, nonzero
/// counts) are consulted — never the values. Sorted ascending by time.
std::vector<VariantScore> score_variants_static(
    const Csr& train, const AlsOptions& options,
    const devsim::DeviceProfile& profile);

/// One launch configuration: code variant plus launch shape.
struct TunedConfig {
  AlsVariant variant;
  int group_size = 32;
  int tile_rows = 0;       ///< 0 = kernel auto
  double modeled_seconds = 0;

  std::string to_string() const;
};

/// Picks the configuration to run. The grid is the 8 batched variants ×
/// group size {8, 16, 32, 64} × staging tile {auto, 32, 64, 128}, the tile
/// applying to local-memory variants only (80 configurations). Every
/// configuration is ranked by the static cost model (each variant source is
/// lowered once per group size), then the two best-ranked run one
/// accounting-only iteration each and the faster is returned, its
/// modeled_seconds scaled to options.iterations. The caller's group_size
/// and tile_rows are ignored; every other option is kept.
TunedConfig select_config(const Csr& train, const AlsOptions& options,
                          const devsim::DeviceProfile& profile);

/// Applies a tuned configuration onto an options struct.
AlsOptions apply_tuning(const AlsOptions& options, const TunedConfig& config);

}  // namespace alsmf
