// Code-variant selection demo (§III-D): score all 8 batched variants on
// each architecture with the cost model and compare against the
// configuration select_config picks.
//
//   ./variant_tuning [--dataset NTFX] [--scale 256] [--k 10]
#include <cstdio>

#include "als/variant_select.hpp"
#include "common/cli.hpp"
#include "data/datasets.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  const std::string abbr = args.get_or("dataset", "NTFX");
  const double scale = args.get_double("scale", 256.0);
  const Csr train = make_replica(abbr, scale);

  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.iterations = static_cast<int>(args.get_long("iters", 5));

  for (const char* name : {"gpu", "mic", "cpu"}) {
    const auto profile = devsim::profile_by_name(name);
    std::printf("=== %s (%s dataset, k=%d) ===\n", profile.name.c_str(),
                abbr.c_str(), options.k);
    const auto scores = score_variants(train, options, profile);
    for (const auto& s : scores) {
      std::printf("  %-20s %10.4f s\n", s.variant.name().c_str(),
                  s.modeled_seconds);
    }
    const TunedConfig pick = select_config(train, options, profile);
    std::printf("  empirical best: %s | select_config: %s (%.4f s)\n\n",
                scores.front().variant.name().c_str(),
                pick.to_string().c_str(), pick.modeled_seconds);
  }
  return 0;
}
