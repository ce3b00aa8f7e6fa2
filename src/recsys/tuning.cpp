#include "recsys/tuning.hpp"

#include <algorithm>

#include "als/metrics.hpp"
#include "als/solver.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "data/split.hpp"
#include "devsim/profile.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

TuningResult grid_search(const Coo& ratings, const TuningGrid& grid) {
  ALSMF_CHECK(!grid.ks.empty() && !grid.lambdas.empty());
  ALSMF_CHECK(grid.validation_fraction > 0.0 &&
              grid.validation_fraction < 1.0);

  auto [train_coo, valid_coo] =
      split_holdout(ratings, grid.validation_fraction, grid.seed);
  const Csr train = coo_to_csr(train_coo);
  const Coo& valid = valid_coo;

  // Materialize the grid; train points in parallel. Each point's launches
  // nest their work-groups on the same pool.
  std::vector<TuningCandidate> candidates;
  for (int k : grid.ks) {
    for (real lambda : grid.lambdas) {
      TuningCandidate c;
      c.k = k;
      c.lambda = lambda;
      candidates.push_back(c);
    }
  }

  ThreadPool::global().parallel_for(
      0, candidates.size(), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) {
          AlsOptions options;
          options.k = candidates[i].k;
          options.lambda = candidates[i].lambda;
          options.iterations = grid.iterations;
          options.weighted_regularization = grid.weighted_regularization;
          options.seed = grid.seed;
          devsim::Device device(devsim::k20c());
          AlsSolver solver(train, options, AlsVariant::batch_local_reg(),
                           device);
          solver.run({});
          candidates[i].validation_rmse = rmse(valid, solver.x(), solver.y());
          candidates[i].train_rmse = rmse(train, solver.x(), solver.y());
        }
      });

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const TuningCandidate& a, const TuningCandidate& b) {
                     return a.validation_rmse < b.validation_rmse;
                   });
  TuningResult result;
  result.best = candidates.front();
  result.all = std::move(candidates);
  return result;
}

}  // namespace alsmf
