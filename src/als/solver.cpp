#include "als/solver.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "als/metrics.hpp"
#include "als/init_factors.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "common/halfprec.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

std::uint64_t trajectory_hash(const AlsOptions& options, const Csr& train) {
  std::uint64_t state = 0x616c736d66ULL;  // "alsmf"
  std::uint64_t h = splitmix64(state);
  const auto mix = [&](std::uint64_t v) {
    state ^= v;
    h ^= splitmix64(state);
  };
  mix(static_cast<std::uint64_t>(options.k));
  std::uint32_t lambda_bits = 0;
  std::memcpy(&lambda_bits, &options.lambda, sizeof(lambda_bits));
  mix(lambda_bits);
  mix(options.seed);
  mix(options.weighted_regularization ? 1 : 0);
  mix(static_cast<std::uint64_t>(options.solver));
  // Strategy knobs fold in only when they change the trajectory, so every
  // pre-strategy checkpoint (implicitly cholesky) keeps its hash.
  if (options.row_solver != RowSolverKind::kCholesky) {
    mix(static_cast<std::uint64_t>(options.row_solver));
    // 3 was the inner-iteration count of the removed truncated-CG
    // strategy, which every non-exact run mixed in; mixing the constant
    // keeps subspace checkpoints loadable.
    mix(3);
    mix(static_cast<std::uint64_t>(options.effective_subspace_block()));
  }
  if (options.storage != StoragePrecision::kFp32) {
    mix(static_cast<std::uint64_t>(options.storage));
  }
  mix(static_cast<std::uint64_t>(train.rows()));
  mix(static_cast<std::uint64_t>(train.cols()));
  mix(static_cast<std::uint64_t>(train.nnz()));
  return h;
}

AlsSolver::AlsSolver(const Csr& train, const AlsOptions& options,
                     const AlsVariant& variant, devsim::Device& device)
    : train_(train),
      train_t_(transpose(train)),
      options_(options),
      variant_(variant),
      device_(device),
      rng_(options.seed) {
  validate(options_);
  row_solver_ = make_row_solver(options_);
  init_factors(train.rows(), train.cols(), options_, x_, y_, rng_);
}

void guard_factor(Matrix& dst, const Csr& r, const Matrix& src,
                  const AlsOptions& options, robust::RobustnessReport& report) {
  if (!options.functional) return;
  const int k = options.k;
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  std::vector<real> smat(kk), smat_saved(kk), rhs_saved(static_cast<std::size_t>(k));
  const auto resolve = [&](index_t row, real lambda_scale, real* out) {
    if (r.row_nnz(row) == 0) {
      std::fill(out, out + k, real{0});
      return true;
    }
    const real base =
        options.weighted_regularization
            ? options.lambda * static_cast<real>(r.row_nnz(row))
            : options.lambda;
    assemble_normal_equations(r.row_cols(row), r.row_values(row), src,
                              base * lambda_scale, k, smat.data(), out);
    std::copy(smat.begin(), smat.end(), smat_saved.begin());
    std::copy(out, out + k, rhs_saved.begin());
    if (cholesky_solve(smat.data(), k, out)) return true;
    // Non-SPD even after redamping: fall back to LU on the saved system.
    ++report.solver_fallbacks;
    std::copy(smat_saved.begin(), smat_saved.end(), smat.begin());
    std::copy(rhs_saved.begin(), rhs_saved.end(), out);
    return lu_solve(smat.data(), k, out);
  };
  robust::guard_rows(dst, resolve, report);
}

void AlsSolver::launch_with_retry(const char* name, const UpdateArgs& args) {
  for (int attempt = 0;; ++attempt) {
    try {
      launch_update(device_, name, args, options_.num_groups,
                    options_.group_size, options_.functional);
      return;
    } catch (const devsim::TransientLaunchError&) {
      if (attempt >= kKernelLaunchRetries) throw;
      // Half-updates only read `src` and overwrite `dst`, so relaunching
      // after a partial failure is idempotent.
      ++report_.kernel_relaunches;
    }
  }
}

void AlsSolver::quantize_factor(Matrix& m) {
  // Non-fp32 storage rounds every freshly solved factor block through the
  // storage format (options.hpp). fp16 flushes subnormals to zero, exactly
  // as the precision analyzer's FTZ model assumes; bf16 keeps fp32's
  // exponent range so plain rounding suffices.
  if (options_.storage == StoragePrecision::kFp32 || !options_.functional) {
    return;
  }
  real* p = m.data();
  const std::size_t n = m.size();
  if (options_.storage == StoragePrecision::kFp16) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<real>(fp16_round_ftz(static_cast<float>(p[i])));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<real>(bf16_round(static_cast<float>(p[i])));
    }
  }
}

void AlsSolver::update_x() {
  UpdateArgs args;
  args.r = &train_;
  args.src = &y_;
  args.dst = &x_;
  args.lambda = options_.lambda;
  args.weighted_lambda = options_.weighted_regularization;
  args.tile_rows = options_.tile_rows;
  args.k = options_.k;
  args.variant = variant_;
  args.row_solver = row_solver_.get();
  args.products = product_table_for(y_, options_.functional, products_);
  launch_with_retry("update_x", args);
  guard_factor(x_, train_, y_, options_, report_);
  quantize_factor(x_);
}

void AlsSolver::update_y() {
  UpdateArgs args;
  args.r = &train_t_;
  args.src = &x_;
  args.dst = &y_;
  args.lambda = options_.lambda;
  args.weighted_lambda = options_.weighted_regularization;
  args.tile_rows = options_.tile_rows;
  args.k = options_.k;
  args.variant = variant_;
  args.row_solver = row_solver_.get();
  args.products = product_table_for(x_, options_.functional, products_);
  launch_with_retry("update_y", args);
  guard_factor(y_, train_t_, x_, options_, report_);
  quantize_factor(y_);
}

void AlsSolver::set_factors(const Matrix& x, const Matrix& y) {
  ALSMF_CHECK(x.rows() == x_.rows() && x.cols() == x_.cols());
  ALSMF_CHECK(y.rows() == y_.rows() && y.cols() == y_.cols());
  x_ = x;
  y_ = y;
}

void AlsSolver::run_iteration() {
  update_x();
  update_y();
  ++iterations_done_;
}

namespace {

/// Cumulative cost snapshot used to turn device totals into per-iteration
/// deltas for the event stream.
struct CostSnapshot {
  double modeled = 0, wall = 0;
  double s1m = 0, s2m = 0, s3m = 0;
  double s1w = 0, s2w = 0, s3w = 0;
};

CostSnapshot cost_snapshot(const devsim::Device& device) {
  CostSnapshot s;
  s.modeled = device.modeled_seconds();
  s.wall = device.wall_seconds();
  s.s1m = device.modeled_seconds_matching("/S1");
  s.s2m = device.modeled_seconds_matching("/S2");
  s.s3m = device.modeled_seconds_matching("/S3");
  s.s1w = device.wall_seconds_matching("/S1");
  s.s2w = device.wall_seconds_matching("/S2");
  s.s3w = device.wall_seconds_matching("/S3");
  return s;
}

}  // namespace

RunReport AlsSolver::run(const RunConfig& config) {
  if (config.checkpoint) {
    ALSMF_CHECK_MSG(!config.checkpoint->dir.empty(), "checkpoint dir required");
    ALSMF_CHECK(config.checkpoint->every > 0);
  }
  ALSMF_CHECK_MSG(!config.resume || config.checkpoint,
                  "resume requires a checkpoint config");

  RunReport report;
  if (config.resume) report.resumed_from = resume_latest(config.checkpoint->dir);
  if (config.metrics) device_.set_metrics(config.metrics);
  if (config.trace) device_.set_trace(config.trace);

  const int target = config.iterations >= 0
                         ? iterations_done_ + config.iterations
                         : options_.iterations;
  const int start_iteration = iterations_done_;
  const double modeled_before = device_.modeled_seconds();
  const double wall_before = device_.wall_seconds();
  CostSnapshot prev;
  if (config.events) prev = cost_snapshot(device_);

  while (iterations_done_ < target) {
    std::optional<devsim::TraceRecorder::Span> span;
    if (config.trace) {
      span.emplace(config.trace->span(
          "solver", "iteration " + std::to_string(iterations_done_ + 1)));
    }
    run_iteration();
    if (span) span->end();

    if (config.checkpoint && (iterations_done_ % config.checkpoint->every == 0 ||
                              iterations_done_ == target)) {
      save_checkpoint(
          robust::checkpoint_path(config.checkpoint->dir, iterations_done_));
      if (config.checkpoint->keep > 0) {
        robust::prune_checkpoints(config.checkpoint->dir,
                                  config.checkpoint->keep);
      }
    }

    double loss = std::numeric_limits<double>::quiet_NaN();
    double rmse = std::numeric_limits<double>::quiet_NaN();
    if ((config.events || config.metrics) && options_.functional) {
      loss = train_loss();
      rmse = train_rmse();
    }

    if (config.events) {
      const CostSnapshot cur = cost_snapshot(device_);
      obs::IterationEvent ev;
      ev.iteration = iterations_done_;
      ev.variant = variant_.name();
      ev.device = device_.profile().name;
      ev.row_solver = to_string(options_.row_solver);
      ev.loss = loss;
      ev.rmse = rmse;
      ev.modeled_seconds = cur.modeled - prev.modeled;
      ev.wall_seconds = cur.wall - prev.wall;
      ev.s1_modeled_s = cur.s1m - prev.s1m;
      ev.s2_modeled_s = cur.s2m - prev.s2m;
      ev.s3_modeled_s = cur.s3m - prev.s3m;
      ev.s1_wall_s = cur.s1w - prev.s1w;
      ev.s2_wall_s = cur.s2w - prev.s2w;
      ev.s3_wall_s = cur.s3w - prev.s3w;
      ev.guard_nonfinite_rows = report_.nonfinite_rows;
      ev.guard_redamped_rows = report_.redamped_rows;
      ev.guard_zeroed_rows = report_.zeroed_rows;
      ev.solver_fallbacks = report_.solver_fallbacks;
      ev.kernel_relaunches = report_.kernel_relaunches;
      config.events->emit(std::move(ev));
      prev = cur;
    }

    if (config.metrics) {
      const obs::Labels labels{{"variant", variant_.name()},
                               {"device", device_.profile().name}};
      config.metrics
          ->counter("als_iterations_total", labels,
                    "Completed ALS training iterations")
          .inc();
      if (!std::isnan(loss)) {
        config.metrics
            ->gauge("als_train_loss", labels,
                    "Training objective after the latest iteration")
            .set(loss);
        config.metrics
            ->gauge("als_train_rmse", labels,
                    "Training RMSE after the latest iteration")
            .set(rmse);
      }
    }
  }

  report.iterations = iterations_done_ - start_iteration;
  report.modeled_seconds = device_.modeled_seconds() - modeled_before;
  report.wall_seconds = device_.wall_seconds() - wall_before;
  return report;
}

std::uint64_t AlsSolver::options_hash() const {
  return trajectory_hash(options_, train_);
}

robust::TrainingCheckpoint AlsSolver::make_checkpoint() const {
  robust::TrainingCheckpoint ckpt;
  ckpt.options_hash = options_hash();
  ckpt.iteration = iterations_done_;
  ckpt.rng_state = rng_.state();
  ckpt.x = x_;
  ckpt.y = y_;
  return ckpt;
}

void AlsSolver::save_checkpoint(const std::string& path) const {
  robust::save_checkpoint_file(path, make_checkpoint());
}

void AlsSolver::restore_checkpoint(const robust::TrainingCheckpoint& ckpt) {
  ALSMF_CHECK_MSG(
      ckpt.options_hash == options_hash(),
      "checkpoint belongs to a different training run (trajectory hash "
      "mismatch); refusing to resume");
  ALSMF_CHECK_MSG(ckpt.x.rows() == x_.rows() && ckpt.x.cols() == x_.cols() &&
                      ckpt.y.rows() == y_.rows() && ckpt.y.cols() == y_.cols(),
                  "checkpoint factor shapes do not match this problem");
  x_ = ckpt.x;
  y_ = ckpt.y;
  iterations_done_ = static_cast<int>(ckpt.iteration);
  rng_.set_state(ckpt.rng_state);
}

void AlsSolver::resume_from_checkpoint(const std::string& path) {
  restore_checkpoint(robust::load_checkpoint_file(path));
}

std::int64_t AlsSolver::resume_latest(const std::string& dir) {
  const auto available = robust::list_checkpoints(dir);
  for (auto it = available.rbegin(); it != available.rend(); ++it) {
    try {
      restore_checkpoint(robust::load_checkpoint_file(it->path));
      return it->iteration;
    } catch (const Error&) {
      // Corrupt or mismatched checkpoint: fall back to the next older one.
    }
  }
  return -1;
}

AlsSolver::ConvergenceReport AlsSolver::run_until(double rel_tol,
                                                  int max_iterations) {
  ALSMF_CHECK_MSG(options_.functional,
                  "run_until needs functional execution to observe the loss");
  ALSMF_CHECK(rel_tol >= 0.0);
  ConvergenceReport report;
  double prev = train_loss();
  for (int it = 0; it < max_iterations; ++it) {
    run_iteration();
    ++report.iterations;
    const double cur = train_loss();
    report.loss_per_iteration.push_back(cur);
    if (prev > 0 && (prev - cur) / prev < rel_tol) {
      report.converged = true;
      break;
    }
    prev = cur;
  }
  return report;
}

double AlsSolver::train_loss() const {
  return options_.weighted_regularization
             ? als_wr_loss(train_, x_, y_, options_.lambda)
             : als_loss(train_, x_, y_, options_.lambda);
}

double AlsSolver::train_rmse() const { return rmse(train_, x_, y_); }

double AlsSolver::modeled_seconds() const {
  return device_.modeled_seconds_matching("update_");
}

double AlsSolver::wall_seconds() const { return device_.wall_seconds(); }

StepBreakdown AlsSolver::step_breakdown() const {
  StepBreakdown b;
  b.s1 = device_.modeled_seconds_matching("/S1");
  b.s2 = device_.modeled_seconds_matching("/S2");
  b.s3 = device_.modeled_seconds_matching("/S3");
  return b;
}

}  // namespace alsmf
