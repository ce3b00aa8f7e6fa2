#include "baselines/sgd.hpp"

#include <atomic>
#include <cmath>
#include <numeric>

#include "als/metrics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/vecops.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {

/// One SGD step on a single rating.
inline void sgd_step(const Triplet& t, Matrix& x, Matrix& y, int k, real lr,
                     real lambda) {
  real* xu = x.row(t.row).data();
  real* yi = y.row(t.col).data();
  const real err = t.value - vdot(xu, yi, static_cast<std::size_t>(k));
  for (int f = 0; f < k; ++f) {
    const real xf = xu[f];
    const real yf = yi[f];
    xu[f] += lr * (err * yf - lambda * xf);
    yi[f] += lr * (err * xf - lambda * yf);
  }
}

}  // namespace

void hogwild_step(const Triplet& t, Matrix& x, Matrix& y, int k, real lr,
                  real lambda) {
  using Coord = std::atomic_ref<real>;
  constexpr auto relaxed = std::memory_order_relaxed;
  real* xu = x.row(t.row).data();
  real* yi = y.row(t.col).data();
  real dot = 0;
  for (int f = 0; f < k; ++f) {
    dot += Coord(xu[f]).load(relaxed) * Coord(yi[f]).load(relaxed);
  }
  const real err = t.value - dot;
  for (int f = 0; f < k; ++f) {
    const real xf = Coord(xu[f]).load(relaxed);
    const real yf = Coord(yi[f]).load(relaxed);
    Coord(xu[f]).fetch_add(lr * (err * yf - lambda * xf), relaxed);
    Coord(yi[f]).fetch_add(lr * (err * xf - lambda * yf), relaxed);
  }
}

SgdResult sgd_train(const Coo& train, const SgdOptions& options,
                    ThreadPool* pool) {
  ALSMF_CHECK(options.k > 0);
  if (!pool) pool = &ThreadPool::global();

  SgdResult result;
  Rng rng(options.seed);
  const real scale =
      static_cast<real>(1.0 / std::sqrt(static_cast<double>(options.k)));
  result.x = Matrix(train.rows(), options.k);
  result.y = Matrix(train.cols(), options.k);
  result.x.fill_uniform(rng, -0.5f * scale, 0.5f * scale);
  result.y.fill_uniform(rng, -0.5f * scale, 0.5f * scale);

  // Deterministic shuffle of the update order (fresh permutation per epoch
  // would also work; one fixed shuffle keeps the single-thread path exactly
  // reproducible).
  std::vector<std::size_t> order(static_cast<std::size_t>(train.nnz()));
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  real lr = options.learning_rate;
  const auto& entries = train.entries();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.hogwild) {
      pool->parallel_for(0, order.size(),
                         [&](std::size_t b, std::size_t e, unsigned) {
                           for (std::size_t i = b; i < e; ++i) {
                             hogwild_step(entries[order[i]], result.x,
                                          result.y, options.k, lr,
                                          options.lambda);
                           }
                         });
    } else {
      for (std::size_t i : order) {
        sgd_step(entries[i], result.x, result.y, options.k, lr,
                 options.lambda);
      }
    }
    lr *= options.lr_decay;
    result.epoch_rmse.push_back(rmse(train, result.x, result.y));
  }
  return result;
}

}  // namespace alsmf
