// Extension (§V-A): "the latent factor k has an impact on the overall
// performance. The HPDC'16 implementation has been specially tuned for the
// k = 100 case, while it is a generic one for the other cases." Sweep k
// and watch our advantage over the cuMF-like library path shrink as k
// approaches its tuning point.
#include <cstdio>

#include "als/variant_select.hpp"
#include "baselines/cumf_like.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Extension — latent factor sweep: ours vs cuMF on K20c",
               "§V-A (cuMF is tuned for k = 100; our advantage is at small k)");

  const auto& info = dataset_by_abbr("NTFX");
  BenchDataset d;
  d.abbr = info.abbr;
  d.scale = std::max(1.0, default_scale(info) * extra);
  d.train = make_replica(info.abbr, d.scale);

  std::printf("%-6s %16s %16s %12s\n", "k", "ours full[s]", "cuMF full[s]",
              "speedup");
  for (int k : {5, 10, 20, 50, 100}) {
    AlsOptions options = paper_options();
    options.k = k;
    const auto gpu = devsim::k20c();
    const AlsVariant best =
        score_variants(d.train, options, gpu).front().variant;
    const double ours = run_als(d, options, best, gpu).full;

    devsim::Device cumf_device(gpu);
    CumfLikeAls cumf(d.train, options, cumf_device);
    cumf.run();
    const double cumf_full = cumf_device.modeled_seconds_scaled(d.scale);

    std::printf("%-6d %16.3f %16.3f %11.2fx\n", k, ours, cumf_full,
                cumf_full / ours);
  }
  std::printf("\nExpected shape: the speedup is largest at k = 10 and decays\n"
              "toward ~1x as k approaches cuMF's k = 100 tuning point.\n");
  return 0;
}
