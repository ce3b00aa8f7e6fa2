// AlsSolver: the user-facing ALS driver. Owns the factor matrices, the CSR
// and CSC (transposed-CSR) forms of the training matrix, and a device; runs
// alternating half-updates through the selected code variant.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "als/kernels.hpp"
#include "als/options.hpp"
#include "common/rng.hpp"
#include "devsim/device.hpp"
#include "linalg/dense.hpp"
#include "robust/checkpoint.hpp"
#include "robust/guards.hpp"
#include "sparse/csr.hpp"

namespace alsmf::obs {
class EventStream;
class Registry;
}

namespace alsmf {

/// Hash of everything that determines the training trajectory: k, λ, seed,
/// regularization mode, linear solver, row-solver strategy (plus its
/// subspace_block knob when non-exact), factor storage precision (when
/// non-fp32), and the training matrix shape/nnz. Stored in checkpoints;
/// resume refuses a checkpoint whose hash differs. The launch shape is
/// excluded — all variants produce bitwise-identical factors, so their
/// checkpoints are interchangeable. Default-solver runs hash identically to
/// pre-strategy builds, keeping their checkpoints loadable.
std::uint64_t trajectory_hash(const AlsOptions& options, const Csr& train);

/// Times AlsSolver and MultiDeviceAls relaunch a half-update after a
/// transient launch fault (devsim::TransientLaunchError) before the error
/// propagates (AlsSolver) or the device counts as lost (MultiDeviceAls).
/// Relaunching is safe: a half-update only reads `src` and overwrites `dst`.
constexpr int kKernelLaunchRetries = 1;

/// The divergence guard both trainers run after every functional
/// half-update: sweeps `dst` (the rows of `r`, solved over `src`) for
/// NaN/Inf rows and re-solves each one directly from its normal equations
/// (robust::guard_rows: escalating λ, Cholesky then LU, zeroed as a last
/// resort), tallying into `report`. Does nothing unless options.functional.
void guard_factor(Matrix& dst, const Csr& r, const Matrix& src,
                  const AlsOptions& options, robust::RobustnessReport& report);

/// Periodic crash-safe checkpointing for run_checkpointed.
struct CheckpointConfig {
  std::string dir;
  int every = 1;         ///< save after every N completed iterations
  std::size_t keep = 3;  ///< checkpoints retained (0 = keep all)
};

/// Unified training-run configuration: one entry point covering plain runs,
/// periodic checkpointing, resume, and the observability sinks. All pointer
/// sinks are optional, borrowed, and stay attached to the device after the
/// run (detach with Device::set_trace(nullptr) / set_metrics(nullptr)).
struct RunConfig {
  /// Additional iterations to run in this call; -1 runs until
  /// iterations_done() reaches options().iterations (the "remaining work"
  /// semantics checkpoint/resume needs).
  int iterations = -1;
  /// When set, saves a crash-safe checkpoint every `every` completed
  /// iterations and prunes old ones.
  std::optional<CheckpointConfig> checkpoint;
  /// Resume from the newest loadable checkpoint in checkpoint->dir before
  /// iterating (requires `checkpoint`).
  bool resume = false;
  /// Per-iteration IterationEvent records (loss/RMSE, step breakdown in
  /// modeled and wall seconds, guard tallies).
  obs::EventStream* events = nullptr;
  /// Metrics registry: attached to the device for per-kernel series, plus
  /// solver-level als_* series updated each iteration.
  obs::Registry* metrics = nullptr;
  /// Trace recorder: attached to the device for launch events, plus one
  /// wall span per iteration on the "solver" track.
  devsim::TraceRecorder* trace = nullptr;
};

/// What a run(RunConfig) call did.
struct RunReport {
  int iterations = 0;  ///< iterations executed by this call
  /// Iteration restored by resume, or -1 (no resume requested or no usable
  /// checkpoint found).
  std::int64_t resumed_from = -1;
  double modeled_seconds = 0;  ///< modeled device-seconds delta of this call
  double wall_seconds = 0;     ///< wall kernel-seconds delta of this call
};

/// Per-step (S1/S2/S3) modeled-time breakdown of a run (Fig. 8).
struct StepBreakdown {
  double s1 = 0, s2 = 0, s3 = 0;
  double total() const { return s1 + s2 + s3; }
  double s1_pct() const { return total() > 0 ? 100.0 * s1 / total() : 0; }
  double s2_pct() const { return total() > 0 ? 100.0 * s2 / total() : 0; }
  double s3_pct() const { return total() > 0 ? 100.0 * s3 / total() : 0; }
};

class AlsSolver {
 public:
  /// Keeps a reference to `train` (must outlive the solver); builds the
  /// transposed copy internally. Factors are initialized as Algorithm 1:
  /// X ← 0, Y ← small random values from options.seed.
  AlsSolver(const Csr& train, const AlsOptions& options,
            const AlsVariant& variant, devsim::Device& device);

  /// One full iteration: update X over Y, then Y over X.
  void run_iteration();

  /// The training entry point: runs per `config` (checkpointing, resume,
  /// observability sinks) and reports what happened.
  RunReport run(const RunConfig& config);

  /// Result of run_until: why it stopped and the trajectory.
  struct ConvergenceReport {
    int iterations = 0;
    bool converged = false;          ///< relative improvement fell below tol
    std::vector<double> loss_per_iteration;
  };

  /// Iterates until the relative training-loss improvement drops below
  /// `rel_tol` or `max_iterations` is reached (Algorithm 1's "max
  /// iterations or error rate" stopping rule). Requires functional mode.
  ConvergenceReport run_until(double rel_tol, int max_iterations);

  /// Update only X (or only Y) — exposed for tests.
  void update_x();
  void update_y();

  /// Warm start: replace the factors with an existing model (shapes must
  /// match) before running — incremental retraining on updated ratings
  /// converges in far fewer iterations than a cold start.
  void set_factors(const Matrix& x, const Matrix& y);

  const Matrix& x() const { return x_; }
  const Matrix& y() const { return y_; }
  const AlsOptions& options() const { return options_; }
  const AlsVariant& variant() const { return variant_; }
  devsim::Device& device() { return device_; }
  int iterations_done() const { return iterations_done_; }

  /// Tally of divergence-guard and fault-recovery activity so far.
  const robust::RobustnessReport& robustness_report() const { return report_; }

  /// The S3 strategy this solver runs (selected by options().row_solver).
  const RowSolver& row_solver() const { return *row_solver_; }

  /// trajectory_hash(options(), train) for this solver's run.
  std::uint64_t options_hash() const;

  /// Snapshot of the full training state (factors, iteration, RNG stream).
  robust::TrainingCheckpoint make_checkpoint() const;

  /// Atomically writes make_checkpoint() to `path`.
  void save_checkpoint(const std::string& path) const;

  /// Restores factors, iteration counter, and RNG state. Throws when the
  /// checkpoint's trajectory hash does not match this run.
  void restore_checkpoint(const robust::TrainingCheckpoint& ckpt);
  void resume_from_checkpoint(const std::string& path);

  /// Restores from the newest loadable checkpoint in `dir`, skipping
  /// corrupt or mismatched files. Returns the resumed iteration, or -1
  /// when no usable checkpoint exists (state is untouched).
  std::int64_t resume_latest(const std::string& dir);

  /// Objective (Eq. 2) on the training data. Functional runs only.
  double train_loss() const;
  double train_rmse() const;

  /// Modeled seconds of this solver's launches so far.
  double modeled_seconds() const;
  double wall_seconds() const;

  /// S1/S2/S3 modeled-time breakdown accumulated so far.
  StepBreakdown step_breakdown() const;

 private:
  /// Launches, relaunching after a transient launch fault
  /// (devsim::TransientLaunchError) up to kKernelLaunchRetries times; any
  /// other launch error escapes at once.
  void launch_with_retry(const char* name, const UpdateArgs& args);
  /// Rounds a freshly solved factor matrix through the configured storage
  /// format (no-op for fp32 storage or modeled-only runs).
  void quantize_factor(Matrix& m);

  const Csr& train_;
  Csr train_t_;
  AlsOptions options_;
  AlsVariant variant_;
  devsim::Device& device_;
  Rng rng_;
  Matrix x_, y_;
  std::unique_ptr<RowSolver> row_solver_;
  /// Products of the running half-update's src, rebuilt by each one into
  /// the same storage (product_table_for).
  ProductTable products_;
  int iterations_done_ = 0;
  robust::RobustnessReport report_;
};

}  // namespace alsmf
