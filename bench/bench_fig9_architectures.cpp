// Fig. 9: our solver across architectures — slowdown relative to the best
// device per dataset (paper: CPU best; GPU ~1.5x slower; MIC ~4.1x slower;
// GPU wins on YahooMusic R1).
#include <algorithm>
#include <cstdio>

#include "als/variant_select.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Figure 9 — our ALS across architectures (slowdown vs best)",
               "Fig. 9 (8192x32 threads, 5 iterations, k=10)");

  const auto datasets = load_table1(extra);
  const AlsOptions options = paper_options();

  std::printf("%-6s | %12s %12s %12s | %8s %8s %8s\n", "data", "GPU full[s]",
              "MIC full[s]", "CPU full[s]", "GPU x", "MIC x", "CPU x");
  for (const auto& d : datasets) {
    double t[3];
    const devsim::DeviceProfile profiles[3] = {
        devsim::k20c(), devsim::xeon_phi_31sp(), devsim::xeon_e5_2670_dual()};
    for (int i = 0; i < 3; ++i) {
      const AlsVariant best =
          score_variants(d.train, options, profiles[i]).front().variant;
      t[i] = run_als(d, options, best, profiles[i]).full;
    }
    const double best = std::min({t[0], t[1], t[2]});
    std::printf("%-6s | %12.3f %12.3f %12.3f | %8.2f %8.2f %8.2f\n",
                d.abbr.c_str(), t[0], t[1], t[2], t[0] / best, t[1] / best,
                t[2] / best);
  }
  return 0;
}
