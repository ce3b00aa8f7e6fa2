// Fig. 7: speedups of our solver vs the SAC'15 baseline (on the CPU and
// the GPU) and vs the HPDC'16 cuMF-like implementation (on the GPU).
#include <cstdio>

#include "als/variant_select.hpp"
#include "baselines/cumf_like.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Figure 7 — ours vs SAC'15 and vs HPDC'16 (cuMF)",
               "Fig. 7 (paper: 5.5x on E5-2670, 21.2x on K20c, 2.2-6.8x vs cuMF)");

  const auto datasets = load_table1(extra);
  const AlsOptions options = paper_options();
  const auto cpu_profile = devsim::xeon_e5_2670_dual();
  const auto gpu_profile = devsim::k20c();

  std::printf("%-6s %16s %16s %16s\n", "data", "vs SAC15 (CPU)",
              "vs SAC15 (GPU)", "vs cuMF (GPU)");
  for (const auto& d : datasets) {
    // Ours: best variant per device (the paper's variant selection).
    const AlsVariant cpu_best =
        score_variants(d.train, options, cpu_profile).front().variant;
    const AlsVariant gpu_best =
        score_variants(d.train, options, gpu_profile).front().variant;
    const double ours_cpu = run_als(d, options, cpu_best, cpu_profile).full;
    const double ours_gpu = run_als(d, options, gpu_best, gpu_profile).full;

    AlsOptions flat_cpu_opts = options;
    flat_cpu_opts.group_size = 1;  // OpenMP-style thread-per-row
    const double sac_cpu =
        run_als(d, flat_cpu_opts, AlsVariant::flat_baseline(), cpu_profile).full;
    const double sac_gpu =
        run_als(d, options, AlsVariant::flat_baseline(), gpu_profile).full;

    devsim::Device cumf_device(gpu_profile);
    CumfLikeAls cumf(d.train, options, cumf_device);
    cumf.run();
    const double cumf_gpu = cumf_device.modeled_seconds_scaled(d.scale);

    std::printf("%-6s %15.2fx %15.2fx %15.2fx\n", d.abbr.c_str(),
                sac_cpu / ours_cpu, sac_gpu / ours_gpu, cumf_gpu / ours_gpu);
  }
  return 0;
}
