// Elastic data-parallel ALS across multiple devices.
//
// The base scheme is what cuMF (HPDC'16) uses on multi-GPU systems: rows of
// X are partitioned across devices (each holding the full Y), then columns
// of Y are partitioned (each holding the full X), with an all-gather of the
// updated factor between half-steps priced at the devices' interconnect
// bandwidth.
//
// On top of that, the coordinator is fault-tolerant (docs/robustness.md,
// "Distributed fault model"):
//  * per-device/per-link faults come from devsim::FaultModel (seeded device
//    death, straggler slowdowns, transfer faults at the distributed
//    robust::fault_injection sites);
//  * shards launch concurrently as the items of one parallel_for on the
//    global pool, and a completed launch is the device's heartbeat;
//  * each shard's rating slice is cut once per layout (at construction and
//    after a repartition) and shared read-only by every wave, speculative
//    copy and recovery launch, so a half-update moves only factor rows, as
//    cuMF keeps each GPU's partition resident;
//  * deadline-based straggler detection (half-step deadline = median shard
//    seconds x straggler_deadline_factor) triggers speculative re-execution
//    of the slow shard on the fastest healthy device;
//  * faulted interconnect transfers retry with exponential backoff, priced
//    into communication_seconds(); an exhausted link fails the device over;
//  * permanent device loss triggers elastic repartition: the dead device's
//    row/column ranges are re-balanced across survivors and their factor
//    rows recomputed from the last all-gathered opposing factor, so the run
//    continues and converges;
//  * after each half-update's all-gather, the factor gets the divergence
//    sweep AlsSolver runs (guard_factor), so a NaN/Inf row from a faulted
//    solve is re-solved before the next half-update reads it.
//
// Zero-fault runs produce bitwise-identical factors to the synchronous
// trainer (row solves are partition-independent), and so do recovered runs
// under every row solver: a recovery or speculative launch re-solves its
// rows from the same inputs as their first solve, the opposing factor and,
// for warm-start solvers, the updated factor as it stood before the
// half-update.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "als/kernels.hpp"
#include "als/options.hpp"
#include "als/solver.hpp"
#include "devsim/device.hpp"
#include "devsim/faults.hpp"
#include "linalg/dense.hpp"
#include "robust/checkpoint.hpp"
#include "sparse/csr.hpp"

namespace alsmf::obs {
class Registry;
}

namespace alsmf {

/// Contiguous row ranges whose cumulative nonzeros approximate 1/parts of
/// the total (1-D prefix-sum partitioning). Always returns non-empty,
/// disjoint ranges covering [0, rows): at most min(parts, rows) of them, so
/// degenerate requests (parts > rows, heavily skewed nnz) yield fewer
/// partitions rather than empty shards. A 0-row matrix yields one empty
/// range.
std::vector<std::pair<index_t, index_t>> balance_by_nnz(const Csr& csr,
                                                        std::size_t parts);

/// Elastic-coordinator knobs. The coordinator always consults the fault
/// model; zero-fault runs stay indistinguishable from the synchronous
/// trainer (factors bitwise-identical; straggler speculation can only fire
/// when a shard exceeds the median-based deadline). A faulted interconnect
/// transfer is retried up to kTransferMaxRetries (3) times with a modeled
/// backoff of kTransferBackoffSeconds (2e-4 s) * 2^retry before the link
/// and its device are declared lost (multi_device.cpp).
struct ElasticOptions {
  /// Half-step deadline = median completed-shard seconds x this factor; a
  /// healthy shard past the deadline counts as a straggler.
  double straggler_deadline_factor = 3.0;
  devsim::FaultModelOptions faults;
};

/// Per-device health as the coordinator sees it.
struct DeviceHealth {
  enum class State { kHealthy, kDead };
  State state = State::kHealthy;
  std::uint64_t heartbeats = 0;        ///< completed shard launches
  std::uint64_t stragglers = 0;        ///< deadline misses while healthy
  std::uint64_t transfer_retries = 0;  ///< faulted transfer attempts retried
  double last_shard_seconds = 0;       ///< modeled seconds of the last shard
};

/// Recovery activity accumulated over a run (serialized by the CLI).
struct ElasticReport {
  std::uint64_t device_failures = 0;    ///< devices lost permanently
  std::uint64_t launch_failures = 0;    ///< launches lost to device death
  std::uint64_t repartitions = 0;       ///< elastic re-balances performed
  std::uint64_t stragglers_detected = 0;
  std::uint64_t speculative_reexecs = 0;
  std::uint64_t speculation_wins = 0;   ///< speculation beat the straggler
  std::uint64_t transfer_retries = 0;
  std::uint64_t link_failovers = 0;     ///< devices lost to a dead link
  std::uint64_t kernel_relaunches = 0;  ///< transient launch faults retried
  std::uint64_t heartbeats = 0;
  double mttr_total_seconds = 0;  ///< modeled detect-to-recovered time
  std::uint64_t recoveries = 0;   ///< recovery events (MTTR samples)
  int devices_configured = 0;
  int devices_alive = 0;

  bool degraded() const { return devices_alive < devices_configured; }
  double mttr_mean_seconds() const {
    return recoveries ? mttr_total_seconds / static_cast<double>(recoveries)
                      : 0.0;
  }
  std::string to_json() const;
};

/// Run configuration for the elastic trainer (mirrors RunConfig for the
/// single-device solver: remaining-work semantics, optional checkpointing,
/// optional metrics).
struct MultiRunConfig {
  /// Iterations to run in this call; -1 runs until iterations_done()
  /// reaches options().iterations.
  int iterations = -1;
  std::optional<CheckpointConfig> checkpoint;
  /// Resume from the newest loadable checkpoint in checkpoint->dir first.
  /// Checkpoints store the global factors, never the partition layout, so a
  /// run may resume with a different device count than the writer's.
  bool resume = false;
  obs::Registry* metrics = nullptr;
};

struct MultiRunReport {
  int iterations = 0;
  std::int64_t resumed_from = -1;
  double modeled_seconds = 0;
  ElasticReport elastic;
};

class MultiDeviceAls {
 public:
  /// One Device is created per profile; the rating matrix is partitioned
  /// by balancing nonzeros (contiguous row/column ranges).
  MultiDeviceAls(const Csr& train, const AlsOptions& options,
                 const AlsVariant& variant,
                 std::vector<devsim::DeviceProfile> profiles,
                 ElasticOptions elastic = {});

  void run_iteration();
  double run();  ///< remaining iterations; returns total modeled seconds

  /// The full-featured entry point: checkpointing, resume, metrics.
  MultiRunReport run(const MultiRunConfig& config);

  const Matrix& x() const { return x_; }
  const Matrix& y() const { return y_; }
  const AlsOptions& options() const { return options_; }
  int iterations_done() const { return iterations_done_; }

  /// Modeled wall time: per half-step the slowest device's effective kernel
  /// time (including recovery/speculation), plus the factor all-gather.
  double modeled_seconds() const { return modeled_seconds_; }
  double communication_seconds() const { return comm_seconds_; }
  int device_count() const { return static_cast<int>(devices_.size()); }
  int alive_device_count() const;

  const DeviceHealth& health(std::size_t device) const {
    return health_[device];
  }
  const ElasticReport& elastic_report() const { return report_; }
  /// Tally of divergence-guard activity so far, as AlsSolver keeps it.
  /// Relaunched launches are counted in elastic_report().kernel_relaunches.
  const robust::RobustnessReport& robustness_report() const {
    return guards_;
  }

  /// Attaches a metrics registry: elastic_* recovery series plus the
  /// devices' devsim_* series (null detaches).
  void set_metrics(obs::Registry* metrics);

  /// Row ranges assigned per alive device for the X update (exposed for
  /// tests). After a device loss this reflects the post-repartition layout.
  std::vector<std::pair<index_t, index_t>> row_partitions() const;

  /// Checkpointing: the checkpoint carries the global factors and iteration
  /// (partition-layout-agnostic), keyed by trajectory_hash(options, train) —
  /// device count is excluded, so resume works across fleet sizes.
  std::uint64_t options_hash() const;
  robust::TrainingCheckpoint make_checkpoint() const;
  void save_checkpoint(const std::string& path) const;
  /// Restores from the newest loadable checkpoint in `dir`, skipping
  /// corrupt or mismatched files; returns the resumed iteration or -1.
  std::int64_t resume_latest(const std::string& dir);

 private:
  enum class Axis { kRows, kCols };

  struct Shard {
    std::size_t device;  ///< index into devices_
    /// Contiguous slice of rows (or transposed cols). Sliced once per
    /// layout (assign_shards, plan_recovery); every wave, speculative copy
    /// and recovery launch shares it read-only.
    std::shared_ptr<const Csr> matrix;
    index_t first_row;  ///< offset into the global factor

    index_t end_row() const { return first_row + matrix->rows(); }
  };

  struct ShardOutcome {
    double seconds = 0;      ///< modeled seconds, straggler-inflated
    bool lost = false;       ///< device died; dst rows were not produced
    bool relaunched = false; ///< a transient launch fault was retried
  };

  void half_update(Axis axis, const Matrix& src, Matrix& dst,
                   const char* name);
  /// Launches `work` concurrently (the shards are the items of one
  /// parallel_for on the global pool) and returns per-shard outcomes. Lost
  /// shards leave their dst rows untouched.
  std::vector<ShardOutcome> run_wave(const std::vector<Shard>& work,
                                     const Matrix& src, Matrix& dst,
                                     const char* name);
  /// Executes `work`, recovering from deaths by repartitioning onto
  /// survivors and recomputing lost ranges; returns the wave's effective
  /// modeled seconds (including detection latency and recovery). Taking
  /// `work` by value copies only the shards' slice pointers.
  double run_elastic(std::vector<Shard> work, const Matrix& src, Matrix& dst,
                     const char* name, Axis axis);
  /// All-gather of `dst` with link-fault retry/backoff; failed links fail
  /// the device over and its ranges are recomputed on survivors.
  double all_gather(Axis axis, const Matrix& src, Matrix& dst,
                    const char* name);

  ShardOutcome launch_shard(const Shard& shard, const Matrix& src,
                            Matrix& dst, const char* name);
  std::vector<std::size_t> alive_devices() const;
  void mark_dead(std::size_t device);
  /// Recomputes both axes' shard assignments over the alive devices.
  void assign_shards();
  /// Splits `ranges` of `axis` across alive devices by nnz.
  std::vector<Shard> plan_recovery(
      Axis axis, const std::vector<std::pair<index_t, index_t>>& ranges);
  void observe_recovery(double mttr_seconds);
  void metrics_update();

  static std::shared_ptr<const Csr> slice_rows(const Csr& csr, index_t begin,
                                               index_t end);

  Csr train_, train_t_;
  AlsOptions options_;
  AlsVariant variant_;
  std::unique_ptr<RowSolver> row_solver_;
  ElasticOptions elastic_;
  std::vector<std::unique_ptr<devsim::Device>> devices_;
  std::vector<DeviceHealth> health_;
  devsim::FaultModel fault_model_;
  std::vector<Shard> x_shards_, y_shards_;
  Matrix x_, y_;
  /// Products of the running half-update's src, built once by
  /// half_update and shared by every shard, wave, speculative copy and
  /// recovery launch of it; `products_` points at it, or is null when the
  /// kernels multiply directly.
  ProductTable product_table_;
  const ProductTable* products_ = nullptr;
  /// The updated factor as it stood before the running half-update: every
  /// launch of that half-update warm-starts from it (warm-start row solvers
  /// only; empty otherwise).
  Matrix warm_start_;
  int iterations_done_ = 0;
  double modeled_seconds_ = 0;
  double comm_seconds_ = 0;
  double last_median_shard_seconds_ = 0;
  ElasticReport report_;
  robust::RobustnessReport guards_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace alsmf
