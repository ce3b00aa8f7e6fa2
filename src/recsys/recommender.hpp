// Recommender: the end-user facade. Trains a factor model with the
// portable ALS solver, serves predictions and top-N recommendations, and
// round-trips models to disk.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "als/options.hpp"
#include "devsim/profile.hpp"
#include "linalg/dense.hpp"
#include "recsys/bias.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

struct Recommendation {
  index_t item;
  real score;
};

struct TrainReport {
  double modeled_seconds = 0;  ///< device-model time of the training run
  double wall_seconds = 0;     ///< host wall-clock
  double train_rmse = 0;
  AlsVariant variant;          ///< code variant that was used
  std::string device;          ///< device profile name
};

class Recommender {
 public:
  Recommender() = default;

  /// Trains on the ratings with the given hyperparameters. The variant is
  /// auto-selected for the device profile unless one is supplied.
  TrainReport train(const Csr& ratings, const AlsOptions& options,
                    const devsim::DeviceProfile& profile);
  TrainReport train(const Csr& ratings, const AlsOptions& options,
                    const devsim::DeviceProfile& profile,
                    const AlsVariant& variant);

  /// Trains with baseline predictors: fits μ + b_u + b_i first, then
  /// factorizes the bias-removed residuals (better accuracy at equal rank).
  /// Predictions and recommendations automatically add the baseline back.
  TrainReport train_with_bias(const Csr& ratings, const AlsOptions& options,
                              const devsim::DeviceProfile& profile,
                              const BiasOptions& bias_options = {});

  bool has_bias() const { return has_bias_; }
  const BiasModel& bias() const { return bias_; }

  /// Wraps factor matrices produced elsewhere (e.g. a checkpointed AlsSolver
  /// run) into a ready-to-serve Recommender.
  static Recommender from_factors(Matrix x, Matrix y);

  bool trained() const { return trained_; }
  index_t users() const { return x_.rows(); }
  index_t items() const { return y_.rows(); }
  int k() const { return static_cast<int>(x_.cols()); }

  /// Predicted rating x_uᵀ y_i.
  real predict(index_t user, index_t item) const;

  /// Top-n items for `user` by predicted score, excluding the user's
  /// already-rated items when `rated` is given (typical serving behaviour).
  std::vector<Recommendation> recommend(index_t user, int n,
                                        const Csr* rated = nullptr) const;

  /// Batch serving: top-n lists for many users, parallel over users.
  std::vector<std::vector<Recommendation>> recommend_batch(
      std::span<const index_t> users, int n, const Csr* rated = nullptr) const;

  /// Evaluation on held-out ratings.
  double rmse_on(const Coo& test) const;

  /// Exports the factor matrices as NumPy files: `<prefix>user_factors.npy`
  /// and `<prefix>item_factors.npy`, for downstream Python analysis.
  void export_factors_npy(const std::string& prefix) const;

  /// Binary model serialization (versioned, validated on load).
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  static Recommender load(std::istream& in);
  static Recommender load_file(const std::string& path);

  const Matrix& user_factors() const { return x_; }
  const Matrix& item_factors() const { return y_; }

 private:
  Matrix x_, y_;
  BiasModel bias_;
  bool has_bias_ = false;
  bool trained_ = false;
};

}  // namespace alsmf
