// Thread-batched SGD on the device substrate — the paper's future work
// (§VII: "extend our technique to other matrix factorization solvers such
// as SGD"). Follows cuMF-SGD's batch-Hogwild scheme: work-groups sweep
// disjoint strided slices of the rating stream; within a group the k
// factor dimensions are mapped across lanes (the same thread batching as
// the ALS kernels). Groups share factor rows Hogwild style: every update
// is an atomic per-coordinate step, so reads may be stale but no update is
// lost. With num_groups = 1 one group runs every rating in a fixed order,
// so the run is deterministic on any pool size.
#pragma once

#include <cstdint>

#include "devsim/device.hpp"
#include "linalg/dense.hpp"
#include "sparse/coo.hpp"

namespace alsmf {

struct DeviceSgdOptions {
  int k = 10;
  real learning_rate = 0.02f;
  real lr_decay = 0.92f;
  real lambda = 0.05f;
  int epochs = 10;
  std::uint64_t seed = 42;
  std::size_t num_groups = 2048;
  int group_size = 32;
  bool functional = true;
};

class DeviceSgd {
 public:
  /// Keeps a reference to `train` (must outlive the solver).
  DeviceSgd(const Coo& train, const DeviceSgdOptions& options,
            devsim::Device& device);

  void run_epoch();
  double run();  ///< all epochs; returns modeled seconds consumed

  const Matrix& x() const { return x_; }
  const Matrix& y() const { return y_; }
  double train_rmse() const;
  double modeled_seconds() const;

 private:
  const Coo& train_;
  DeviceSgdOptions options_;
  devsim::Device& device_;
  Matrix x_, y_;
  real lr_;
  int epoch_ = 0;
};

}  // namespace alsmf
