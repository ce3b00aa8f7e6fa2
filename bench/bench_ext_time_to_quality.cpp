// Extension: time-to-quality across row-solver strategies. Per device, how
// much modeled time does each S3 strategy (docs/solvers.md) need to reach a
// target training RMSE? Couples the functional convergence trajectory with
// the cost model's per-round prices — the practitioner's actual question
// ("which solver should I run on this box?").
//
// Expected shape: the exact Cholesky solve pays the full k³/3 factorization
// every row; the warm-started subspace sweep pays less per row once the
// factors settle, at the price of slightly less exact half-updates.
#include <cstdio>
#include <string>
#include <vector>

#include "als/metrics.hpp"
#include "als/solver.hpp"
#include "bench_util.hpp"
#include "sparse/convert.hpp"

namespace {

using namespace alsmf;

struct SolverLane {
  const char* label;
  RowSolverKind row_solver;
};

struct LaneResult {
  int rounds = 0;
  double seconds = -1;  // modeled, scaled; -1 = target not reached
};

LaneResult run_lane(const Csr& train, const devsim::DeviceProfile& profile,
                    const SolverLane& lane, int k, double target_rmse,
                    int max_rounds, double scale) {
  AlsOptions o;
  o.k = k;
  o.lambda = 0.05f;
  o.row_solver = lane.row_solver;
  devsim::Device device(profile);
  const AlsVariant v = profile.kind == devsim::DeviceKind::kGpu
                           ? AlsVariant::batch_local_reg()
                           : AlsVariant::batch_local();
  AlsSolver solver(train, o, v, device);
  LaneResult res;
  while (res.rounds < max_rounds && solver.train_rmse() > target_rmse) {
    solver.run_iteration();
    ++res.rounds;
  }
  if (solver.train_rmse() <= target_rmse) {
    res.seconds = device.modeled_seconds_scaled(scale);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Extension — modeled time to reach a target RMSE",
               "row-solver strategies (cholesky | subspace) per device");

  const auto& info = dataset_by_abbr("MVLE");
  const double scale = std::max(1.0, default_scale(info) * 4.0 * extra);
  SyntheticSpec spec = replica_spec(info, scale);
  spec.planted_rank = 4;
  spec.noise = 0.25;
  spec.integer_ratings = false;
  const Csr train = coo_to_csr(generate_synthetic(spec));

  const int k = 16;
  const double target_rmse = 0.45;
  const int max_rounds = 40;
  std::printf("MVLE-shaped replica (1/%.0f), k=%d, target train RMSE %.2f\n\n",
              scale, k, target_rmse);

  const std::vector<SolverLane> lanes = {
      {"cholesky", RowSolverKind::kCholesky},
      {"subspace", RowSolverKind::kSubspace},
  };

  std::printf("%-18s", "device");
  for (const auto& lane : lanes) std::printf(" | %5s %14s", "it", lane.label);
  std::printf("\n");

  for (const char* dev : {"gpu", "cpu", "mic"}) {
    const auto profile = devsim::profile_by_name(dev);
    std::printf("%-18s", profile.name.c_str());
    for (const auto& lane : lanes) {
      const LaneResult r =
          run_lane(train, profile, lane, k, target_rmse, max_rounds, scale);
      if (r.seconds < 0) {
        std::printf(" | %5d %14s", r.rounds, "(not reached)");
      } else {
        std::printf(" | %5d %14.4f", r.rounds, r.seconds);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape: subspace shaves the per-iteration S3 price.\n"
      "Whether that beats the exact solve to the target depends on the\n"
      "device's compute/memory balance (gated in bench_regress's\n"
      "time_to_quality leg).\n");
  return 0;
}
