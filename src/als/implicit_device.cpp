#include "als/implicit_device.hpp"

#include <cmath>
#include <vector>

#include "als/reference.hpp"
#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {
using devsim::GroupCtx;
}

DeviceImplicitAls::DeviceImplicitAls(const Csr& interactions,
                                     const ImplicitOptions& options,
                                     devsim::Device& device)
    : r_(interactions),
      rt_(transpose(interactions)),
      options_(options),
      device_(device) {
  alsmf::validate(options_);
  init_factors(interactions.rows(), interactions.cols(), options_, x_, y_);
}

void DeviceImplicitAls::half_update(const Csr& r, const Matrix& src,
                                    Matrix& dst, const char* name) {
  ALSMF_CHECK(r.cols() == src.rows() && r.rows() == dst.rows());
  const int k = options_.k;
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);

  // Host-side Gram precompute (matches implicit_als exactly: λ included).
  std::vector<real> gram(kk);
  gram_full(src, options_.lambda, gram.data());

  devsim::LaunchConfig config;
  config.group_size = group_size;
  config.num_groups = std::max<std::size_t>(
      1, std::min<std::size_t>(num_groups, static_cast<std::size_t>(r.rows())));
  config.functional = functional;
  config.validate = validate;
  const std::size_t stride = config.num_groups;
  const real alpha = options_.alpha;

  device_.launch(name, config, [&, k, alpha, stride](GroupCtx& ctx) {
    const int W = ctx.simd_width();
    const double bundles = ctx.num_bundles();
    const double passes =
        std::ceil(static_cast<double>(k) / ctx.group_size());
    // The assembled system and rhs emulate register/private storage of the
    // real kernel; kept outside the shadow like the explicit solve scratch.
    auto a = ctx.local_alloc<real>(kk, "a");
    auto rhs = ctx.local_alloc<real>(static_cast<std::size_t>(k), "rhs");
    auto g_gram = ctx.global_span("gram", gram.data(), gram.size());
    // 32-bit device column indices, int64 on the host (see kernels.cpp).
    auto g_cols = ctx.global_span("r.col_idx", r.col_idx().data(),
                                  r.col_idx().size(), 4);
    auto g_vals =
        ctx.global_span("r.values", r.values().data(), r.values().size());
    auto g_src = ctx.global_span("src", src.data(), src.size());
    auto g_dst = ctx.global_span("dst", dst.data(), dst.size());

    for (index_t u = static_cast<index_t>(ctx.group_id()); u < r.rows();
         u += static_cast<index_t>(stride)) {
      const auto omega = static_cast<double>(r.row_nnz(u));

      // --- accounting ---
      ctx.section("S1");
      // Gram broadcast: k*k coalesced floats per row, then the
      // Ω-restricted rank-1 confidence corrections (full k x k each, not
      // just the upper triangle — the asymmetric (c-1) weight).
      ctx.global_read_coalesced(static_cast<double>(kk) * 4.0);
      ctx.ops_scalar(bundles * W * passes * omega * k);
      ctx.flops(2.0 * k * k * omega + static_cast<double>(kk));
      ctx.global_read_coalesced(omega * 8.0);
      ctx.global_read_scattered(omega, k * 4.0);
      ctx.section("S2");
      ctx.ops_scalar(bundles * W * passes * omega);
      ctx.flops(2.0 * k * omega);
      ctx.section("S3");
      const double s3 = cholesky_solve_flops(k);
      ctx.ops_scalar(bundles * W * s3);
      ctx.flops(s3);
      ctx.global_write_scattered(1.0, k * 4.0);

      if (!ctx.functional()) continue;

      // --- functional: the row routine implicit_als runs ---
      ctx.section("S1");
      ctx.set_lane(0);
      g_gram.mark_read(0, gram.size());
      auto cols = r.row_cols(u);
      auto vals = r.row_values(u);
      const auto row_begin =
          static_cast<std::size_t>(r.row_ptr()[static_cast<std::size_t>(u)]);
      g_cols.mark_read(row_begin, cols.size());
      g_vals.mark_read(row_begin, vals.size());
      // Per-rating gathers are declared under the checker only: the Csr
      // invariant keeps every column below r.cols() == src.rows().
      if (ctx.validate()) {
        for (const index_t c : cols) {
          g_src.mark_read(static_cast<std::size_t>(c) *
                              static_cast<std::size_t>(k),
                          static_cast<std::size_t>(k));
        }
      }
      implicit_solve_row(gram.data(), cols, vals, src, alpha, k, a.data(),
                         rhs.data());
      ctx.section("S3");
      auto out = dst.row(u);
      std::copy(rhs.begin(), rhs.begin() + k, out.begin());
      g_dst.mark_write(static_cast<std::size_t>(u) * static_cast<std::size_t>(k),
                       static_cast<std::size_t>(k));
    }
  });
}

void DeviceImplicitAls::run_iteration() {
  half_update(r_, y_, x_, "implicit_update_x");
  half_update(rt_, x_, y_, "implicit_update_y");
}

double DeviceImplicitAls::run() {
  const double before = device_.modeled_seconds();
  for (int it = 0; it < options_.iterations; ++it) run_iteration();
  return device_.modeled_seconds() - before;
}

double DeviceImplicitAls::modeled_seconds() const {
  return device_.modeled_seconds_matching("implicit_update");
}

}  // namespace alsmf
