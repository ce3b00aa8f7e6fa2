// Hogwild-style parallel stochastic gradient descent for matrix
// factorization (Recht et al., NIPS'11) — the main alternative solver the
// paper's related work discusses, included for convergence comparisons.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/dense.hpp"
#include "sparse/coo.hpp"

namespace alsmf {

struct SgdOptions {
  int k = 10;
  real lambda = 0.05f;       ///< L2 regularization per update
  real learning_rate = 0.01f;
  real lr_decay = 0.9f;      ///< per-epoch multiplicative decay
  int epochs = 20;
  std::uint64_t seed = 42;
  bool hogwild = true;       ///< lock-free parallel updates when true
};

struct SgdResult {
  Matrix x;  ///< m × k
  Matrix y;  ///< n × k
  std::vector<double> epoch_rmse;  ///< training RMSE after each epoch
};

/// One Hogwild SGD step on rating `t`: every coordinate of x's row t.row
/// and y's row t.col is read and updated atomically (relaxed), the model of
/// Recht et al. Reads may be stale, but no update is lost; two threads
/// running `+=` on one coordinate drop one of the two updates, and on small,
/// hot factor matrices enough of them are dropped to slow convergence well
/// behind the sequential order. Both sgd_train(hogwild) and DeviceSgd step
/// through it.
void hogwild_step(const Triplet& t, Matrix& x, Matrix& y, int k, real lr,
                  real lambda);

/// Trains factors with SGD over the rating triplets. With hogwild=true the
/// updates run lock-free on the pool with atomic per-coordinate adds (the
/// Hogwild model of the paper [27]: stale reads, no lost update); otherwise
/// one thread processes a deterministic shuffled order.
SgdResult sgd_train(const Coo& train, const SgdOptions& options,
                    ThreadPool* pool = nullptr);

}  // namespace alsmf
