// Portability punchline: model an accelerator that did not exist when the
// paper was written, from a plain-text profile, and let select_config pick
// a configuration for it — no recompilation, exactly the "emerging
// hardware" workflow the paper motivates (Observation 2).
//
//   ./custom_device [--profile my_device.txt] [--dataset NTFX] [--scale 256]
#include <cstdio>
#include <sstream>

#include "als/variant_select.hpp"
#include "common/cli.hpp"
#include "data/datasets.hpp"
#include "devsim/profile_io.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  devsim::DeviceProfile profile;
  if (auto path = args.get("profile")) {
    profile = devsim::read_profile_file(*path);
  } else {
    // A plausible embedded-GPU-like accelerator, defined inline the same
    // way a user would write the profile file.
    std::istringstream spec(R"(
name = Hypothetical EmbeddedGPU
kind = gpu
compute_units = 4
simd_width = 64
clock_ghz = 0.9
issue_per_cu = 2
pipeline_efficiency = 0.1
groups_in_flight_per_cu = 8
mem_bw_gbs = 34
cache_bw_gbs = 300
scattered_transaction_bytes = 64
local_mem_bytes = 32768
has_hw_local_mem = 1
rereads_cached = 0
private_arrays_offchip = 1
global_latency_slots = 4
launch_overhead_us = 12
)");
    profile = devsim::read_profile(spec);
  }

  std::printf("device: %s (%s) — %d CUs x %d lanes, %.0f GB/s, %.0f GFLOP/s\n\n",
              profile.name.c_str(), devsim::to_string(profile.kind),
              profile.compute_units, profile.simd_width, profile.mem_bw_gbs,
              profile.peak_gflops());

  const Csr train = make_replica(args.get_or("dataset", "NTFX"),
                                 args.get_double("scale", 256.0));
  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.iterations = 5;

  std::printf("variant scores (cost model):\n");
  for (const auto& s : score_variants(train, options, profile)) {
    std::printf("  %-20s %10.4f s\n", s.variant.name().c_str(),
                s.modeled_seconds);
  }

  const TunedConfig tuned = select_config(train, options, profile);
  std::printf("\nselected configuration: %s  (%.4f modeled s)\n",
              tuned.to_string().c_str(), tuned.modeled_seconds);
  return 0;
}
