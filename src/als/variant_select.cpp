#include "als/variant_select.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

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
  const az::DatasetStats stats_x = row_stats(train);
  const az::DatasetStats stats_y = col_stats(train);
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
        ranked.push_back({v, ws, tile,
                          static_iteration_seconds(kernels[mask], stats_x,
                                                   stats_y, launch, profile)});
      }
    }
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
  for (std::size_t i = 0; i < 2; ++i) {
    TunedConfig c = ranked[i];
    devsim::Device device(profile);
    AlsSolver solver(train, apply_tuning(opts, c), c.variant, device);
    c.modeled_seconds = options.iterations * solver.run(one).modeled_seconds;
    // Per-worker counter sums merge in chunk-claim order, so equal
    // configurations differ in the last bits from run to run; rank 2 must
    // win by more than that for the pick to be the same on every run.
    if (i == 0 || c.modeled_seconds < best.modeled_seconds * (1 - 1e-12)) {
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
