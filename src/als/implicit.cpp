#include "als/implicit.hpp"

#include <string>
#include <vector>

#include "als/kernels.hpp"
#include "als/init_factors.hpp"
#include "common/error.hpp"
#include "linalg/vecops.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

void validate(const ImplicitOptions& options) {
  validate(static_cast<const FactorOptionsBase&>(options));
  if (options.alpha < 0.0f) {
    throw Error("invalid alpha = " + std::to_string(options.alpha) +
                "; the confidence slope must be >= 0 (c = 1 + alpha * r)");
  }
}

DeviceImplicitAls::DeviceImplicitAls(const Csr& interactions,
                                     const ImplicitOptions& options,
                                     devsim::Device& device)
    : options_(options), conf_(interactions), device_(device) {
  alsmf::validate(options_);
  for (real& v : conf_.values()) v = real{1} + options_.alpha * v;
  conf_t_ = transpose(conf_);
  init_factors(interactions.rows(), interactions.cols(), options_, x_, y_);
}

void DeviceImplicitAls::half_update(const Csr& conf, const Matrix& src,
                                    Matrix& dst, const char* name) {
  gram_.resize(static_cast<std::size_t>(options_.k) * options_.k);
  gram_full(src, options_.lambda, gram_.data());
  UpdateArgs args;
  args.r = &conf;
  args.src = &src;
  args.dst = &dst;
  args.k = options_.k;
  args.gram = gram_.data();
  launch_update(device_, name, args, num_groups, group_size, functional,
                validate);
}

void DeviceImplicitAls::run_iteration() {
  half_update(conf_, y_, x_, "implicit_update_x");
  half_update(conf_t_, x_, y_, "implicit_update_y");
}

double DeviceImplicitAls::run() {
  const double before = device_.modeled_seconds();
  for (int it = 0; it < options_.iterations; ++it) run_iteration();
  return device_.modeled_seconds() - before;
}

double DeviceImplicitAls::modeled_seconds() const {
  return device_.modeled_seconds_matching("implicit_update");
}

double implicit_loss(const Csr& r, const Matrix& x, const Matrix& y,
                     const ImplicitOptions& options) {
  ALSMF_CHECK(x.rows() == r.rows() && y.rows() == r.cols());
  const int k = options.k;
  ALSMF_CHECK(x.cols() == k && y.cols() == k);
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);

  // Unobserved part: Σ_all ŷ² = Σ_u x_uᵀ (YᵀY) x_u via the Gram trick.
  std::vector<real> gram(kk);
  gram_full(y, real{0}, gram.data());
  double total = 0;
  std::vector<real> gx(static_cast<std::size_t>(k));
  for (index_t u = 0; u < x.rows(); ++u) {
    auto xu = x.row(u);
    for (int i = 0; i < k; ++i) {
      real s = 0;
      const real* grow = gram.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
      for (int j = 0; j < k; ++j) s += grow[j] * xu[static_cast<std::size_t>(j)];
      gx[static_cast<std::size_t>(i)] = s;
    }
    total += static_cast<double>(vdot(xu.data(), gx.data(), static_cast<std::size_t>(k)));
  }

  // Observed corrections: c(1-ŷ)² - ŷ² per stored entry.
  for (index_t u = 0; u < r.rows(); ++u) {
    auto cols = r.row_cols(u);
    auto vals = r.row_values(u);
    auto xu = x.row(u);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const double pred = vdot(xu.data(), y.row(cols[p]).data(),
                               static_cast<std::size_t>(k));
      const double conf = 1.0 + static_cast<double>(options.alpha) * vals[p];
      total += conf * (1.0 - pred) * (1.0 - pred) - pred * pred;
    }
  }

  return total + static_cast<double>(options.lambda) * (x.frob2() + y.frob2());
}

}  // namespace alsmf
