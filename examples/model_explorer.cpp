// Cost-model diagnostic: run one ALS configuration and dump the recorded
// device activity and time components per kernel section. Useful when
// calibrating device profiles or studying where modeled time goes.
//
//   ./model_explorer --dataset NTFX --scale 64 --device cpu
//                    [--variant 0..7|flat] [--group 32] [--k 10]
//                    [--iters 5] [--functional] [--cumf]
#include <cstdio>

#include "als/solver.hpp"
#include "baselines/cumf_like.hpp"
#include "common/cli.hpp"
#include "data/datasets.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  const Csr train =
      make_replica(args.get_or("dataset", "NTFX"), args.get_double("scale", 64.0));

  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.iterations = static_cast<int>(args.get_long("iters", 5));
  options.group_size = static_cast<int>(args.get_long("group", 32));
  options.functional = args.has_flag("functional");

  AlsVariant variant;
  const std::string vname = args.get_or("variant", "0");
  if (vname == "flat") {
    variant = AlsVariant::flat_baseline();
  } else {
    variant = AlsVariant::from_mask(static_cast<unsigned>(std::stoul(vname)));
  }

  const auto profile = devsim::profile_by_name(args.get_or("device", "cpu"));
  devsim::Device device(profile);
  double total = 0;
  if (args.has_flag("cumf")) {
    CumfLikeAls cumf(train, options, device);
    total = cumf.run();
  } else {
    AlsSolver solver(train, options, variant, device);
    total = solver.run(RunConfig{}).modeled_seconds;
  }

  std::printf("device=%s variant=%s k=%d group=%d  modeled=%.6f s\n\n",
              profile.name.c_str(), variant.name().c_str(), options.k,
              options.group_size, total);
  std::printf("%-16s %10s %10s %10s | %12s %12s %12s %12s %12s\n", "kernel",
              "compute[s]", "memory[s]", "ovh[s]", "ops_scalar", "ops_vector",
              "glob[MB]", "scat[Macc]", "spill[MB]");
  for (const auto& [name, s] : device.stats()) {
    std::printf("%-16s %10.4f %10.4f %10.4f | %12.3g %12.3g %12.2f %12.2f %12.2f\n",
                name.c_str(), s.time.compute_s, s.time.memory_s,
                s.time.overhead_s, s.counters.lane_ops_scalar,
                s.counters.lane_ops_vector, s.counters.global_bytes / 1e6,
                s.counters.scattered_accesses / 1e6,
                s.counters.spill_bytes / 1e6);
  }
  std::printf("\nlocal traffic [MB]: ");
  for (const auto& [name, s] : device.stats()) {
    std::printf("%s=%.1f  ", name.c_str(), s.counters.local_bytes / 1e6);
  }
  std::printf("\n");
  return 0;
}
