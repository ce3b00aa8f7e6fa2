#include "recsys/recommender.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "als/metrics.hpp"
#include "als/solver.hpp"
#include "als/variant_select.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "linalg/vecops.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/npy.hpp"

namespace alsmf {

namespace {
constexpr char kModelMagic[8] = {'A', 'L', 'S', 'M', 'D', 'L', '0', '1'};
constexpr char kModelMagicV2[8] = {'A', 'L', 'S', 'M', 'D', 'L', '0', '2'};

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
void read_pod(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  ALSMF_CHECK_MSG(in.good(), "truncated model stream");
}

void write_matrix(std::ostream& out, const Matrix& m) {
  write_pod(out, static_cast<std::int64_t>(m.rows()));
  write_pod(out, static_cast<std::int64_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(real)));
}

Matrix read_matrix(std::istream& in) {
  std::int64_t rows = 0, cols = 0;
  read_pod(in, rows);
  read_pod(in, cols);
  ALSMF_CHECK_MSG(rows >= 0 && cols >= 0, "bad model matrix shape");
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(real)));
  ALSMF_CHECK_MSG(in.good(), "truncated model stream");
  return m;
}
}  // namespace

Recommender Recommender::from_factors(Matrix x, Matrix y) {
  ALSMF_CHECK_MSG(x.cols() == y.cols(),
                  "factor matrices must share the latent dimension k");
  Recommender rec;
  rec.x_ = std::move(x);
  rec.y_ = std::move(y);
  rec.trained_ = true;
  return rec;
}

TrainReport Recommender::train(const Csr& ratings, const AlsOptions& options,
                               const devsim::DeviceProfile& profile) {
  return train(ratings, options,
               profile, select_variant_heuristic(ratings, options, profile));
}

TrainReport Recommender::train(const Csr& ratings, const AlsOptions& options,
                               const devsim::DeviceProfile& profile,
                               const AlsVariant& variant) {
  Timer wall;
  devsim::Device device(profile);
  AlsOptions opts = options;
  opts.functional = true;
  AlsSolver solver(ratings, opts, variant, device);
  TrainReport report;
  RunConfig run_config;
  run_config.iterations = opts.iterations;
  report.modeled_seconds = solver.run(run_config).modeled_seconds;
  report.wall_seconds = wall.seconds();
  report.train_rmse = solver.train_rmse();
  report.variant = variant;
  report.device = profile.name;
  x_ = solver.x();
  y_ = solver.y();
  trained_ = true;
  return report;
}

real Recommender::predict(index_t user, index_t item) const {
  ALSMF_CHECK_MSG(trained_, "predict() before train()/load()");
  ALSMF_CHECK(user >= 0 && user < users());
  ALSMF_CHECK(item >= 0 && item < items());
  const real factor_score = vdot(x_.row(user).data(), y_.row(item).data(),
                                 static_cast<std::size_t>(k()));
  return has_bias_ ? bias_.combine(user, item, factor_score) : factor_score;
}

std::vector<Recommendation> Recommender::recommend(index_t user, int n,
                                                   const Csr* rated) const {
  ALSMF_CHECK_MSG(trained_, "recommend() before train()/load()");
  ALSMF_CHECK(user >= 0 && user < users());
  ALSMF_CHECK(n >= 0);

  std::span<const index_t> exclude;
  if (rated && user < rated->rows()) exclude = rated->row_cols(user);
  // `exclude` is sorted (CSR invariant), as topn_from_factor requires.
  return topn_from_factor(x_.row(user), y_, n, has_bias_ ? &bias_ : nullptr,
                          user, exclude);
}

std::vector<std::vector<Recommendation>> Recommender::recommend_batch(
    std::span<const index_t> users, int n, const Csr* rated) const {
  ALSMF_CHECK_MSG(trained_, "recommend_batch() before train()/load()");
  std::vector<std::vector<Recommendation>> result(users.size());
  ThreadPool::global().parallel_for(
      0, users.size(), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) {
          result[i] = recommend(users[i], n, rated);
        }
      });
  return result;
}

double Recommender::rmse_on(const Coo& test) const {
  ALSMF_CHECK_MSG(trained_, "rmse_on() before train()/load()");
  if (!has_bias_) return rmse(test, x_, y_);
  double sse = 0;
  for (const auto& t : test.entries()) {
    const double e = static_cast<double>(t.value) - predict(t.row, t.col);
    sse += e * e;
  }
  return test.nnz() > 0 ? std::sqrt(sse / static_cast<double>(test.nnz()))
                        : 0.0;
}

void Recommender::save(std::ostream& out) const {
  ALSMF_CHECK_MSG(trained_, "save() before train()/load()");
  if (!has_bias_) {
    out.write(kModelMagic, sizeof(kModelMagic));
    write_matrix(out, x_);
    write_matrix(out, y_);
    return;
  }
  out.write(kModelMagicV2, sizeof(kModelMagicV2));
  write_matrix(out, x_);
  write_matrix(out, y_);
  // Bias block: mu, then the two bias vectors as 1-column matrices.
  const real mu = bias_.global_mean();
  write_pod(out, mu);
  Matrix bu(users(), 1), bi(items(), 1);
  for (index_t u = 0; u < users(); ++u) bu(u, 0) = bias_.user_bias(u);
  for (index_t i = 0; i < items(); ++i) bi(i, 0) = bias_.item_bias(i);
  write_matrix(out, bu);
  write_matrix(out, bi);
}

void Recommender::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  save(out);
}

Recommender Recommender::load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  const bool v1 = in.good() && std::memcmp(magic, kModelMagic, 8) == 0;
  const bool v2 = in.good() && std::memcmp(magic, kModelMagicV2, 8) == 0;
  ALSMF_CHECK_MSG(v1 || v2, "bad model magic");
  Recommender r;
  r.x_ = read_matrix(in);
  r.y_ = read_matrix(in);
  ALSMF_CHECK_MSG(r.x_.cols() == r.y_.cols(), "inconsistent factor ranks");
  if (v2) {
    real mu = 0;
    read_pod(in, mu);
    const Matrix bu = read_matrix(in);
    const Matrix bi = read_matrix(in);
    ALSMF_CHECK_MSG(bu.rows() == r.x_.rows() && bi.rows() == r.y_.rows(),
                    "bias block shape mismatch");
    r.bias_ = BiasModel::from_parts(mu, bu, bi);
    r.has_bias_ = true;
  }
  r.trained_ = true;
  return r;
}

TrainReport Recommender::train_with_bias(const Csr& ratings,
                                         const AlsOptions& options,
                                         const devsim::DeviceProfile& profile,
                                         const BiasOptions& bias_options) {
  bias_ = BiasModel::fit(ratings, bias_options);
  const Csr residuals = bias_.residuals(ratings);
  TrainReport report = train(residuals, options, profile);
  has_bias_ = true;
  // train() computed the RMSE of the factor part against the residuals,
  // which equals the combined model's RMSE against the raw ratings.
  return report;
}

void Recommender::export_factors_npy(const std::string& prefix) const {
  ALSMF_CHECK_MSG(trained_, "export before train()/load()");
  write_npy_file(prefix + "user_factors.npy", x_);
  write_npy_file(prefix + "item_factors.npy", y_);
}

Recommender Recommender::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ALSMF_CHECK_MSG(in.good(), "cannot open for read: " + path);
  return load(in);
}

}  // namespace alsmf
