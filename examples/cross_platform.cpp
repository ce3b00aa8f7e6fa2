// Portability demo (§III-D): train the same dataset on the three device
// profiles the paper evaluates, selecting a configuration (code variant and
// launch shape) per architecture, and compare modeled execution times.
//
//   ./cross_platform [--dataset MVLE|NTFX|YMR1|YMR4] [--scale 256]
#include <cstdio>

#include "als/solver.hpp"
#include "als/variant_select.hpp"
#include "common/cli.hpp"
#include "data/datasets.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  const std::string abbr = args.get_or("dataset", "MVLE");
  const double scale = args.get_double("scale", 256.0);
  const Csr train = make_replica(abbr, scale);
  std::printf("Dataset %s replica at 1/%.0f scale: %lld x %lld, %lld nnz\n\n",
              abbr.c_str(), scale, static_cast<long long>(train.rows()),
              static_cast<long long>(train.cols()),
              static_cast<long long>(train.nnz()));

  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.lambda = 0.1f;
  options.iterations = static_cast<int>(args.get_long("iters", 5));

  std::printf("%-18s %-32s %14s %14s %10s\n", "device", "configuration",
              "modeled [s]", "wall [s]", "RMSE");
  for (const char* name : {"cpu", "gpu", "mic"}) {
    const auto profile = devsim::profile_by_name(name);
    const TunedConfig tuned = select_config(train, options, profile);
    devsim::Device device(profile);
    AlsSolver solver(train, apply_tuning(options, tuned), tuned.variant,
                     device);
    const double modeled = solver.run(RunConfig{}).modeled_seconds;
    std::printf("%-18s %-32s %14.4f %14.4f %10.4f\n", profile.name.c_str(),
                tuned.to_string().c_str(), modeled, solver.wall_seconds(),
                solver.train_rmse());
  }
  return 0;
}
