// Ablation (§III-D): the full 8-variant cross product (registers x local
// x vectors on top of thread batching) on every device and dataset — the
// code-variant selection space.
#include <cstdio>

#include "als/variant_select.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Ablation — all 8 code variants per device and dataset",
               "§III-D (code variant selection)");

  const auto datasets = load_table1(extra);
  const AlsOptions options = paper_options();

  for (const char* dev : {"gpu", "mic", "cpu"}) {
    const auto profile = devsim::profile_by_name(dev);
    std::printf("=== %s === full-dataset modeled seconds\n",
                profile.name.c_str());
    std::printf("%-20s", "variant");
    for (const auto& d : datasets) std::printf(" %10s", d.abbr.c_str());
    std::printf("\n");
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      const AlsVariant v = AlsVariant::from_mask(mask);
      std::printf("%-20s", v.name().c_str());
      for (const auto& d : datasets) {
        std::printf(" %10.3f", run_als(d, options, v, profile).full);
      }
      std::printf("\n");
    }
    // Selector verdicts per dataset.
    std::printf("%-20s", "empirical best");
    for (const auto& d : datasets) {
      const std::string best =
          score_variants(d.train, options, profile).front().variant.name();
      std::printf(" %19s", best.c_str());
    }
    std::printf("\n\n");
  }
  return 0;
}
