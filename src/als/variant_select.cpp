#include "als/variant_select.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "als/kernel_model.hpp"
#include "als/row_solver.hpp"
#include "als/solver.hpp"
#include "common/error.hpp"
#include "devsim/cost_model.hpp"
#include "devsim/device.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/analyze/static_profile.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf {

namespace {

namespace az = ocl::analyze;

// The launch shapes select_config searches (§V-E group sizes; staging tiles
// for the local-memory variants, 0 = kernel auto).
constexpr int kGroupSizes[] = {8, 16, 32, 64};
constexpr int kTileRows[] = {0, 32, 64, 128};

// Shape statistics of the update-X launch (one row of R per batch row).
az::DatasetStats row_stats(const Csr& m) {
  az::DatasetStats s;
  s.rows = static_cast<double>(m.rows());
  s.nnz = static_cast<double>(m.nnz());
  const auto& rp = m.row_ptr();
  for (index_t u = 0; u < m.rows(); ++u) {
    if (rp[static_cast<std::size_t>(u) + 1] > rp[static_cast<std::size_t>(u)])
      s.nonempty_rows += 1;
  }
  return s;
}

// Shape statistics of the update-Y launch (the solver maps Rᵀ), computed by
// scanning col_idx — no transpose is materialized for a static ranking.
az::DatasetStats col_stats(const Csr& m) {
  az::DatasetStats s;
  s.rows = static_cast<double>(m.cols());
  s.nnz = static_cast<double>(m.nnz());
  std::vector<char> seen(static_cast<std::size_t>(m.cols()), 0);
  for (const index_t c : m.col_idx()) seen[static_cast<std::size_t>(c)] = 1;
  for (const char f : seen) s.nonempty_rows += f;
  return s;
}

// The variant's generated source at work-group size `group_size`, lowered to
// the access IR. The staging tile is a launch parameter, not part of it.
az::KernelIR lower_variant(const AlsVariant& v, int k, int group_size) {
  ocl::KernelConfig kc;
  kc.k = k;
  kc.group_size = group_size;
  auto kernels = az::lower_kernels(
      az::parse_translation_unit(ocl::batched_kernel_source(v, kc)));
  ALSMF_CHECK_MSG(kernels.size() == 1, "variant source must hold 1 kernel");
  return std::move(kernels.front());
}

// Statically modeled seconds of one iteration: update X over R, then Y over
// Rᵀ, both priced by the devsim cost model.
double static_iteration_seconds(const az::KernelIR& kernel,
                                const az::DatasetStats& stats_x,
                                const az::DatasetStats& stats_y,
                                const az::StaticLaunchParams& launch,
                                const devsim::DeviceProfile& profile) {
  const az::StaticKernelProfile px =
      az::build_static_profile(kernel, stats_x, launch, profile);
  const az::StaticKernelProfile py =
      az::build_static_profile(kernel, stats_y, launch, profile);
  return devsim::estimate_time(px.counters, profile).total_s() +
         devsim::estimate_time(py.counters, profile).total_s();
}

// Scratch-pad bytes one work-group of the batched kernel requests, in the
// order and 64-byte alignment BatchedKernel allocates them (kernels.cpp):
// the k×k system, the rhs, the row solver's scratch and, for the
// local-memory variant, the staging tile sized against what is left.
std::size_t batched_local_bytes(const AlsVariant& v, int k, int tile_rows,
                                std::size_t solver_reals,
                                std::size_t capacity) {
  const auto aligned = [](std::size_t reals) {
    return (reals * sizeof(real) + 63) / 64 * 64;
  };
  const auto kk = static_cast<std::size_t>(k);
  std::size_t bytes = aligned(kk * kk) + aligned(kk) + aligned(solver_reals);
  if (v.use_local && bytes <= capacity) {
    const std::size_t rows =
        kernel_model::staging_tile_rows(k, capacity - bytes, tile_rows);
    bytes += aligned(rows * kk) + aligned(rows);
  }
  return bytes;
}

template <class T>
void sort_by_time(std::vector<T>& v) {
  std::stable_sort(v.begin(), v.end(), [](const T& a, const T& b) {
    return a.modeled_seconds < b.modeled_seconds;
  });
}

}  // namespace

std::vector<VariantScore> score_variants(const Csr& train,
                                         const AlsOptions& options,
                                         const devsim::DeviceProfile& profile) {
  std::vector<VariantScore> scores;
  scores.reserve(AlsVariant::kVariantCount);
  AlsOptions opts = options;
  opts.functional = false;  // cost-model only: no arithmetic
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    devsim::Device device(profile);
    AlsSolver solver(train, opts, v, device);
    const double t = solver.run({}).modeled_seconds;
    scores.push_back({v, t});
  }
  sort_by_time(scores);
  return scores;
}

std::vector<VariantScore> score_variants_static(
    const Csr& train, const AlsOptions& options,
    const devsim::DeviceProfile& profile) {
  validate(options);  // the kernel generator assumes a sane k
  az::StaticLaunchParams launch;
  launch.num_groups = options.num_groups;
  launch.group_size = options.group_size;
  launch.tile_rows = options.tile_rows;
  const az::DatasetStats stats_x = row_stats(train);
  const az::DatasetStats stats_y = col_stats(train);

  std::vector<VariantScore> scores;
  scores.reserve(AlsVariant::kVariantCount);
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant v = AlsVariant::from_mask(mask);
    const az::KernelIR kernel = lower_variant(v, options.k, options.group_size);
    scores.push_back({v, options.iterations *
                             static_iteration_seconds(kernel, stats_x, stats_y,
                                                      launch, profile)});
  }
  sort_by_time(scores);
  return scores;
}

std::string TunedConfig::to_string() const {
  std::ostringstream os;
  os << variant.name() << " ws=" << group_size;
  if (variant.use_local) {
    os << " tile=" << (tile_rows == 0 ? std::string("auto")
                                      : std::to_string(tile_rows));
  }
  return os.str();
}

TunedConfig select_config(const Csr& train, const AlsOptions& options,
                          const devsim::DeviceProfile& profile) {
  validate(options);  // the kernel generator assumes a sane k
  // Step 1: rank the whole grid with the static cost model, zero runs.
  // A configuration whose scratch-pad request exceeds the profile's local
  // capacity would fail to launch, so it is no candidate.
  const az::DatasetStats stats_x = row_stats(train);
  const az::DatasetStats stats_y = col_stats(train);
  const std::size_t capacity = devsim::local_capacity_bytes(profile);
  const std::size_t solver_reals =
      make_row_solver(options)->scratch_reals(options.k);
  // The variant loop is innermost so that, among configurations the static
  // model prices the same (tiles longer than most rows tie; the vector
  // toggle can tie its scalar twin), the stable sort puts distinct
  // variants rather than distinct tiles of one variant into the top two.
  std::vector<TunedConfig> ranked;
  for (const int ws : kGroupSizes) {
    std::vector<az::KernelIR> kernels;  // indexed by variant mask
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      kernels.push_back(
          lower_variant(AlsVariant::from_mask(mask), options.k, ws));
    }
    for (const int tile : kTileRows) {
      az::StaticLaunchParams launch;
      launch.num_groups = options.num_groups;
      launch.group_size = ws;
      launch.tile_rows = tile;
      for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
        const AlsVariant v = AlsVariant::from_mask(mask);
        if (tile != 0 && !v.use_local) continue;  // no tile to stage
        if (batched_local_bytes(v, options.k, tile, solver_reals, capacity) >
            capacity) {
          continue;
        }
        ranked.push_back({v, ws, tile,
                          static_iteration_seconds(kernels[mask], stats_x,
                                                   stats_y, launch, profile)});
      }
    }
  }
  if (ranked.empty()) {
    throw Error("select_config: no configuration fits at k = " +
                std::to_string(options.k) +
                ": every batched variant needs at least " +
                std::to_string(batched_local_bytes(AlsVariant::batching_only(),
                                                   options.k, 0, solver_reals,
                                                   capacity)) +
                " bytes of local memory per work-group, more than the " +
                std::to_string(capacity) + " bytes of " + profile.name);
  }
  sort_by_time(ranked);

  // Step 2: the static rank can misorder near neighbours, so confirm the top
  // two with one accounting-only iteration each. Accounting time is linear
  // in the iteration count, so one iteration scaled is the full run's time.
  AlsOptions opts = options;
  opts.functional = false;  // cost-model only: no arithmetic
  RunConfig one;
  one.iterations = 1;
  TunedConfig best;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, ranked.size()); ++i) {
    TunedConfig c = ranked[i];
    devsim::Device device(profile);
    AlsSolver solver(train, apply_tuning(opts, c), c.variant, device);
    c.modeled_seconds = options.iterations * solver.run(one).modeled_seconds;
    if (i == 0 || c.modeled_seconds < best.modeled_seconds) {
      best = c;
    }
  }
  return best;
}

AlsOptions apply_tuning(const AlsOptions& options, const TunedConfig& config) {
  AlsOptions tuned = options;
  tuned.group_size = config.group_size;
  tuned.tile_rows = config.tile_rows;
  return tuned;
}

}  // namespace alsmf
