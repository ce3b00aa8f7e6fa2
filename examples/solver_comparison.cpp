// Solver-family comparison: ALS vs thread-batched SGD (DeviceSgd on a
// modeled K20c) vs CCD++ convergence on the same data (the three techniques
// of the paper's related-work section).
//
//   ./solver_comparison [--users 3000] [--items 2000] [--nnz 90000]
#include <cstdio>

#include "als/metrics.hpp"
#include "als/reference.hpp"
#include "baselines/ccd.hpp"
#include "baselines/sgd_device.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "data/synthetic.hpp"
#include "sparse/convert.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);

  SyntheticSpec spec;
  spec.users = args.get_long("users", 3000);
  spec.items = args.get_long("items", 2000);
  spec.nnz = args.get_long("nnz", 90000);
  spec.seed = 11;
  const Coo coo = generate_synthetic(spec);
  const Csr train = coo_to_csr(coo);
  const int k = static_cast<int>(args.get_long("k", 10));
  const int rounds = static_cast<int>(args.get_long("rounds", 8));

  std::printf("%-8s %-12s %-12s %-12s\n", "round", "ALS", "SGD", "CCD++");

  // ALS: run one iteration at a time to log the trajectory.
  AlsOptions als_opts;
  als_opts.k = k;
  als_opts.lambda = 0.1f;
  als_opts.iterations = 1;
  Matrix x, y;
  init_factors(train.rows(), train.cols(), als_opts, x, y);
  const Csr train_t = transpose(train);
  std::vector<double> als_rmse;
  Timer als_timer;
  for (int it = 0; it < rounds; ++it) {
    reference_half_update(train, y, x, als_opts);
    reference_half_update(train_t, x, y, als_opts);
    als_rmse.push_back(rmse(train, x, y));
  }
  const double als_time = als_timer.seconds();

  DeviceSgdOptions sgd_opts;
  sgd_opts.k = k;
  sgd_opts.epochs = rounds;
  devsim::Device sgd_device(devsim::k20c());
  DeviceSgd sgd(coo, sgd_opts, sgd_device);
  std::vector<double> sgd_rmse;
  Timer sgd_timer;
  for (int e = 0; e < sgd_opts.epochs; ++e) {
    sgd.run_epoch();
    sgd_rmse.push_back(sgd.train_rmse());
  }
  const double sgd_time = sgd_timer.seconds();

  CcdOptions ccd_opts;
  ccd_opts.k = k;
  ccd_opts.outer_iterations = rounds;
  Timer ccd_timer;
  const CcdResult ccd = ccd_train(train, ccd_opts);
  const double ccd_time = ccd_timer.seconds();

  for (int it = 0; it < rounds; ++it) {
    std::printf("%-8d %-12.4f %-12.4f %-12.4f\n", it + 1, als_rmse[it],
                sgd_rmse[it], ccd.iter_rmse[it]);
  }
  std::printf("\nwall time [s]: ALS %.3f | SGD %.3f | CCD++ %.3f\n", als_time,
              sgd_time, ccd_time);
  return 0;
}
