#include "baselines/sgd_device.hpp"

#include <atomic>
#include <cmath>

#include "als/metrics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace alsmf {

namespace {

/// One Hogwild SGD step on rating `t`: every coordinate of x's row t.row
/// and y's row t.col is read and updated atomically (relaxed), the model of
/// Recht et al. Reads may be stale, but no update is lost; two threads
/// running `+=` on one coordinate drop one of the two updates, and on small,
/// hot factor matrices enough of them are dropped to slow convergence well
/// behind the sequential order.
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

}  // namespace

DeviceSgd::DeviceSgd(const Coo& train, const DeviceSgdOptions& options,
                     devsim::Device& device)
    : train_(train), options_(options), device_(device),
      lr_(options.learning_rate) {
  ALSMF_CHECK(options.k > 0);
  ALSMF_CHECK(options.learning_rate > 0.0f);
  Rng rng(options_.seed);
  const real scale =
      static_cast<real>(1.0 / std::sqrt(static_cast<double>(options_.k)));
  x_ = Matrix(train.rows(), options_.k);
  y_ = Matrix(train.cols(), options_.k);
  x_.fill_uniform(rng, -0.5f * scale, 0.5f * scale);
  y_.fill_uniform(rng, -0.5f * scale, 0.5f * scale);
}

void DeviceSgd::run_epoch() {
  const auto& entries = train_.entries();
  const int k = options_.k;
  const real lr = lr_;
  const real lambda = options_.lambda;

  devsim::LaunchConfig config;
  config.group_size = options_.group_size;
  config.num_groups =
      std::max<std::size_t>(1, std::min(options_.num_groups, entries.size()));
  config.functional = options_.functional;
  const std::size_t stride = config.num_groups;

  device_.launch("sgd_epoch", config, [&, k, lr, lambda,
                                       stride](devsim::GroupCtx& ctx) {
    const int W = ctx.simd_width();
    const double bundles = ctx.num_bundles();
    const double passes =
        std::ceil(static_cast<double>(k) / ctx.group_size());
    std::size_t local_count = 0;

    for (std::size_t e = ctx.group_id(); e < entries.size(); e += stride) {
      ++local_count;
      if (!ctx.functional()) continue;
      // Groups run concurrently and share factor rows: step atomically.
      hogwild_step(entries[e], x_, y_, k, lr, lambda);
    }

    // Accounting for this group's slice: per rating, a dot pass plus two
    // update passes across the k lanes (4 lane-ops each incl. the scaled
    // regularizer), factor rows gathered and written back scattered.
    const auto n = static_cast<double>(local_count);
    ctx.ops_scalar(bundles * W * passes * 4.0 * n);
    ctx.flops((6.0 * k + 3.0) * n);
    ctx.global_read_coalesced(n * 16.0);  // the rating triplets stream in
    ctx.global_read_scattered(2.0 * n, k * 4.0);   // x row + y row
    ctx.global_write_scattered(2.0 * n, k * 4.0);  // both written back
  });

  lr_ *= options_.lr_decay;
  ++epoch_;
}

double DeviceSgd::run() {
  const double before = device_.modeled_seconds();
  for (int e = 0; e < options_.epochs; ++e) run_epoch();
  return device_.modeled_seconds() - before;
}

double DeviceSgd::train_rmse() const { return rmse(train_, x_, y_); }

double DeviceSgd::modeled_seconds() const {
  return device_.modeled_seconds_matching("sgd_epoch");
}

}  // namespace alsmf
