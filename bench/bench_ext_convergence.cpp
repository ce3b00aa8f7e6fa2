// Extension: convergence comparison of the three solver families the
// paper's related work discusses — ALS (ours, AlsSolver), thread-batched
// SGD (DeviceSgd), both on a modeled K20c, and CCD++ — on a
// MovieLens-shaped replica (functional execution, host wall-clock).
#include <cstdio>

#include "als/solver.hpp"
#include "baselines/ccd.hpp"
#include "baselines/sgd_device.hpp"
#include "bench_util.hpp"
#include "common/timer.hpp"
#include "sparse/convert.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  const double extra = parse_bench_args(argc, argv).scale;

  print_header("Extension — ALS vs SGD vs CCD++ convergence",
               "Related work (§VI): the three MF solver families");

  const auto& info = dataset_by_abbr("MVLE");
  const double scale = std::max(1.0, default_scale(info) * 4.0 * extra);
  const Csr train = make_replica(info.abbr, scale);
  const Coo train_coo = csr_to_coo(train);
  std::printf("MVLE replica 1/%.0f: %lld x %lld, %lld ratings\n\n", scale,
              static_cast<long long>(train.rows()),
              static_cast<long long>(train.cols()),
              static_cast<long long>(train.nnz()));

  const int k = 10;
  const int rounds = 6;

  // ALS: log RMSE per full iteration.
  AlsOptions als_opts;
  als_opts.k = k;
  als_opts.lambda = 0.1f;
  devsim::Device als_device(devsim::k20c());
  std::vector<double> als_rmse;
  Timer als_timer;
  AlsSolver als(train, als_opts, AlsVariant::batch_local_reg(), als_device);
  for (int it = 0; it < rounds; ++it) {
    als.run_iteration();
    als_rmse.push_back(als.train_rmse());
  }
  const double als_s = als_timer.seconds();

  DeviceSgdOptions sgd_opts;
  sgd_opts.k = k;
  sgd_opts.epochs = rounds;
  devsim::Device sgd_device(devsim::k20c());
  DeviceSgd sgd(train_coo, sgd_opts, sgd_device);
  std::vector<double> sgd_rmse;
  Timer sgd_timer;
  for (int e = 0; e < sgd_opts.epochs; ++e) {
    sgd.run_epoch();
    sgd_rmse.push_back(sgd.train_rmse());
  }
  const double sgd_s = sgd_timer.seconds();

  CcdOptions ccd_opts;
  ccd_opts.k = k;
  ccd_opts.outer_iterations = rounds;
  Timer ccd_timer;
  const CcdResult ccd = ccd_train(train, ccd_opts);
  const double ccd_s = ccd_timer.seconds();

  std::printf("%-8s %12s %12s %12s   (training RMSE)\n", "round", "ALS",
              "SGD", "CCD++");
  for (int it = 0; it < rounds; ++it) {
    std::printf("%-8d %12.4f %12.4f %12.4f\n", it + 1, als_rmse[static_cast<std::size_t>(it)],
                sgd_rmse[static_cast<std::size_t>(it)],
                ccd.iter_rmse[static_cast<std::size_t>(it)]);
  }
  std::printf("\nhost wall seconds: ALS %.3f | SGD %.3f | CCD++ %.3f\n", als_s,
              sgd_s, ccd_s);
  return 0;
}
