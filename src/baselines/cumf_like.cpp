#include "baselines/cumf_like.hpp"

#include <algorithm>
#include <cmath>

#include "als/init_factors.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {

using devsim::GroupCtx;

/// Library kernels launched per half-update (csrmm, geam, batched potrf,
/// batched trsv × 2, scatter) — each paying launch overhead.
constexpr int kLibraryLaunches = 6;

}  // namespace

CumfLikeAls::CumfLikeAls(const Csr& train, const AlsOptions& options,
                         devsim::Device& device)
    : train_(train),
      train_t_(transpose(train)),
      options_(options),
      device_(device) {
  ALSMF_CHECK(options.k > 0 && options.k <= kTileK);
  init_factors(train.rows(), train.cols(), options_, x_, y_);
}

void CumfLikeAls::half_update(const Csr& r, const Matrix& src, Matrix& dst,
                              const char* name) {
  const int k = options_.k;
  // The library path processes tiles padded to the tuned width (but never
  // below the warp width, its minimum scheduling granularity).
  const double k_pad = std::max(32, std::min(kTileK, ((k + 31) / 32) * 32));
  const real lambda = options_.lambda;
  const bool functional = options_.functional;
  const auto rows = static_cast<std::size_t>(r.rows());

  devsim::LaunchConfig config;
  config.group_size = 32;
  config.num_groups = std::max<std::size_t>(1, std::min<std::size_t>(8192, rows));
  config.functional = functional;
  const std::size_t stride = config.num_groups;
  const LinearSolverKind solver = options_.solver;

  device_.launch(name, config, [&, k_pad, lambda, stride, solver](GroupCtx& ctx) {
    const int W = ctx.simd_width();
    const double bundles = ctx.num_bundles();
    auto smat = ctx.local_alloc<real>(static_cast<std::size_t>(k) * k);
    auto svec = ctx.local_alloc<real>(static_cast<std::size_t>(k));
    // cuMF stages k_pad-wide tiles of Y and the assembled k_pad x k_pad
    // system in shared memory (its occupancy cost is real); at large k the
    // tile is clipped to what the scratch-pad can hold.
    const std::size_t lib_tile_elems = std::min(
        2 * static_cast<std::size_t>(k_pad) * static_cast<std::size_t>(k_pad),
        ctx.local_remaining() / 2 / sizeof(real));
    auto lib_tile = ctx.local_alloc<real>(lib_tile_elems);
    (void)lib_tile;

    for (index_t u = static_cast<index_t>(ctx.group_id()); u < r.rows();
         u += static_cast<index_t>(stride)) {
      const auto omega = static_cast<double>(r.row_nnz(u));
      if (omega == 0) {
        if (ctx.functional()) {
          auto row = dst.row(u);
          std::fill(row.begin(), row.end(), real{0});
        }
        continue;
      }

      // S1: gram accumulation over k_pad-wide tiles (generic path).
      ctx.section("S1");
      const double pairs_pad = 0.5 * k_pad * (k_pad + 1);
      ctx.ops_vector(bundles * W * omega * pairs_pad / W);
      ctx.flops(2.0 * 0.5 * k * (k + 1) * omega);
      ctx.global_read_coalesced(omega * 8.0);
      ctx.global_read_scattered(omega, k_pad * 4.0);
      // Materialized csrmm intermediate: written out, read back by geam.
      ctx.global_write_coalesced(omega * k_pad * 4.0);
      ctx.global_read_coalesced(omega * k_pad * 4.0);
      // The assembled k_pad×k_pad systems go to global for the batched solve.
      ctx.global_write_coalesced(k_pad * k_pad * 4.0);

      // S2: dense right-hand sides via the same library path.
      ctx.section("S2");
      ctx.ops_vector(bundles * W * omega * k_pad / W);
      ctx.flops(2.0 * k * omega);
      ctx.reread(omega, k_pad * 4.0);  // row-granular library loads
      ctx.global_write_coalesced(k_pad * 4.0);

      // S3: batched factorization reads the stored systems back. cuMF's
      // batched potrf (Kurzak et al.) parallelizes each k_pad x k_pad
      // factorization across the warp at partial lane utilization — but on
      // padded k_pad-wide tiles rather than the true k.
      ctx.section("S3");
      constexpr double kBatchedPotrfUtilization = 0.125;
      const double s3_flops = solver == LinearSolverKind::kCholesky
                                  ? cholesky_solve_flops(static_cast<int>(k_pad))
                                  : lu_solve_flops(static_cast<int>(k_pad));
      ctx.ops_scalar(bundles * W * s3_flops /
                     (W * kBatchedPotrfUtilization));
      ctx.flops(s3_flops);
      ctx.global_read_coalesced(k_pad * k_pad * 4.0);
      ctx.global_write_scattered(1.0, k * 4.0);

      if (ctx.functional()) {
        assemble_normal_equations(r.row_cols(u), r.row_values(u), src, lambda,
                                  k, smat.data(), svec.data());
        solve_normal_equations(smat.data(), svec.data(), k, solver);
        auto row = dst.row(u);
        std::copy(svec.begin(), svec.begin() + k, row.begin());
      }
    }
  });

  // Extra library launches beyond the fused model above.
  for (int i = 1; i < kLibraryLaunches; ++i) {
    devsim::LaunchConfig tiny;
    tiny.group_size = 32;
    tiny.num_groups = 1;
    tiny.functional = false;
    device_.launch(std::string(name) + "/lib_overhead", tiny,
                   [](GroupCtx&) {});
  }
}

void CumfLikeAls::run_iteration() {
  half_update(train_, y_, x_, "cumf_update_x");
  half_update(train_t_, x_, y_, "cumf_update_y");
}

double CumfLikeAls::run() {
  const double before = device_.modeled_seconds();
  for (int it = 0; it < options_.iterations; ++it) run_iteration();
  return device_.modeled_seconds() - before;
}

double CumfLikeAls::modeled_seconds() const {
  return device_.modeled_seconds_matching("cumf_");
}

}  // namespace alsmf
