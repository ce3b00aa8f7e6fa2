#include "als/multi_device.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "als/init_factors.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sparse/convert.hpp"

namespace alsmf {

namespace {

/// Interconnect transfer retries before the link (and its device) is
/// declared lost.
constexpr int kTransferMaxRetries = 3;
/// Modeled backoff before retry r: kTransferBackoffSeconds * 2^r.
constexpr double kTransferBackoffSeconds = 2e-4;

}  // namespace

std::vector<std::pair<index_t, index_t>> balance_by_nnz(const Csr& csr,
                                                        std::size_t parts) {
  std::vector<std::pair<index_t, index_t>> ranges;
  const index_t rows = csr.rows();
  if (rows == 0) {
    ranges.push_back({0, 0});
    return ranges;
  }
  parts = std::max<std::size_t>(
      1, std::min<std::size_t>(parts, static_cast<std::size_t>(rows)));
  const double target =
      static_cast<double>(csr.nnz()) / static_cast<double>(parts);
  index_t begin = 0;
  for (std::size_t p = 0; p + 1 < parts; ++p) {
    const double goal = static_cast<double>(p + 1) * target;
    // Advance while the cumulative nonzeros up to `end` fall short of the
    // goal (row_ptr[e] is the prefix nnz through row e-1).
    index_t end = begin;
    while (end < rows &&
           static_cast<double>(csr.row_ptr()[static_cast<std::size_t>(end)]) <
               goal) {
      ++end;
    }
    // Non-emptiness: this partition takes at least one row, and leaves at
    // least one row for each remaining partition. parts <= rows makes both
    // clamps mutually satisfiable (begin advances by >= 1 per partition).
    const auto remaining = static_cast<index_t>(parts - p - 1);
    end = std::max(end, static_cast<index_t>(begin + 1));
    end = std::min(end, static_cast<index_t>(rows - remaining));
    ranges.push_back({begin, end});
    begin = end;
  }
  ranges.push_back({begin, rows});
  return ranges;
}

std::string ElasticReport::to_json() const {
  json::JsonWriter w;
  w.begin_object()
      .field("device_failures", device_failures)
      .field("launch_failures", launch_failures)
      .field("repartitions", repartitions)
      .field("stragglers_detected", stragglers_detected)
      .field("speculative_reexecs", speculative_reexecs)
      .field("speculation_wins", speculation_wins)
      .field("transfer_retries", transfer_retries)
      .field("link_failovers", link_failovers)
      .field("kernel_relaunches", kernel_relaunches)
      .field("heartbeats", heartbeats)
      .field("recoveries", recoveries)
      .field("mttr_mean_seconds", mttr_mean_seconds())
      .field("devices_configured", devices_configured)
      .field("devices_alive", devices_alive)
      .field("degraded", degraded())
      .end_object();
  return w.str();
}

MultiDeviceAls::MultiDeviceAls(const Csr& train, const AlsOptions& options,
                               const AlsVariant& variant,
                               std::vector<devsim::DeviceProfile> profiles,
                               ElasticOptions elastic)
    : train_(train),
      train_t_(transpose(train)),
      options_(options),
      variant_(variant),
      elastic_(elastic),
      fault_model_(std::max<std::size_t>(1, profiles.size()), elastic.faults) {
  ALSMF_CHECK_MSG(!profiles.empty(), "need at least one device profile");
  validate(options_);
  // trajectory_hash folds storage in, so a checkpoint written with it set
  // would claim a trajectory this trainer does not run.
  if (options_.storage != StoragePrecision::kFp32) {
    throw Error(std::string("MultiDeviceAls stores factors at fp32 only: "
                            "storage = ") +
                to_string(options_.storage) + "; expected fp32");
  }
  row_solver_ = make_row_solver(options_);
  for (auto& p : profiles) {
    devices_.push_back(std::make_unique<devsim::Device>(std::move(p)));
  }
  health_.resize(devices_.size());
  report_.devices_configured = static_cast<int>(devices_.size());
  report_.devices_alive = report_.devices_configured;
  assign_shards();
  init_factors(train_.rows(), train_.cols(), options_, x_, y_);
}

std::shared_ptr<const Csr> MultiDeviceAls::slice_rows(const Csr& csr,
                                                      index_t begin,
                                                      index_t end) {
  ALSMF_CHECK(begin >= 0 && begin <= end && end <= csr.rows());
  aligned_vector<nnz_t> row_ptr(static_cast<std::size_t>(end - begin) + 1, 0);
  const nnz_t base = csr.row_ptr()[static_cast<std::size_t>(begin)];
  for (index_t u = begin; u <= end; ++u) {
    row_ptr[static_cast<std::size_t>(u - begin)] =
        csr.row_ptr()[static_cast<std::size_t>(u)] - base;
  }
  const auto first = static_cast<std::size_t>(base);
  const auto count = static_cast<std::size_t>(
      csr.row_ptr()[static_cast<std::size_t>(end)] - base);
  aligned_vector<index_t> col_idx(csr.col_idx().begin() + static_cast<std::ptrdiff_t>(first),
                                  csr.col_idx().begin() + static_cast<std::ptrdiff_t>(first + count));
  aligned_vector<real> values(csr.values().begin() + static_cast<std::ptrdiff_t>(first),
                              csr.values().begin() + static_cast<std::ptrdiff_t>(first + count));
  return std::make_shared<const Csr>(end - begin, csr.cols(),
                                     std::move(row_ptr), std::move(col_idx),
                                     std::move(values));
}

std::vector<std::size_t> MultiDeviceAls::alive_devices() const {
  std::vector<std::size_t> alive;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (health_[d].state == DeviceHealth::State::kHealthy) alive.push_back(d);
  }
  return alive;
}

int MultiDeviceAls::alive_device_count() const {
  return static_cast<int>(alive_devices().size());
}

void MultiDeviceAls::mark_dead(std::size_t device) {
  if (health_[device].state == DeviceHealth::State::kDead) return;
  health_[device].state = DeviceHealth::State::kDead;
  ++report_.device_failures;
  report_.devices_alive = alive_device_count();
}

void MultiDeviceAls::assign_shards() {
  const auto alive = alive_devices();
  ALSMF_CHECK_MSG(!alive.empty(), "all devices lost — cannot repartition");
  x_shards_.clear();
  y_shards_.clear();
  const auto row_parts = balance_by_nnz(train_, alive.size());
  const auto col_parts = balance_by_nnz(train_t_, alive.size());
  for (std::size_t i = 0; i < row_parts.size(); ++i) {
    x_shards_.push_back({alive[i],
                         slice_rows(train_, row_parts[i].first,
                                    row_parts[i].second),
                         row_parts[i].first});
  }
  for (std::size_t i = 0; i < col_parts.size(); ++i) {
    y_shards_.push_back({alive[i],
                         slice_rows(train_t_, col_parts[i].first,
                                    col_parts[i].second),
                         col_parts[i].first});
  }
}

std::vector<std::pair<index_t, index_t>> MultiDeviceAls::row_partitions()
    const {
  std::vector<std::pair<index_t, index_t>> parts;
  for (const auto& s : x_shards_) {
    parts.push_back({s.first_row, s.end_row()});
  }
  return parts;
}

MultiDeviceAls::ShardOutcome MultiDeviceAls::launch_shard(const Shard& shard,
                                                          const Matrix& src,
                                                          Matrix& dst,
                                                          const char* name) {
  ShardOutcome out;
  const devsim::LaunchFault fault = fault_model_.on_launch(shard.device);
  if (fault.device_lost) {
    out.lost = true;
    return out;
  }

  const int k = options_.k;
  Matrix local(shard.matrix->rows(), k);
  if (options_.functional && row_solver_->uses_warm_start()) {
    // Iterative strategies warm-start each row from its previous factor
    // value; seed the shard-local output with those rows as they stood
    // before this half-update.
    for (index_t u = 0; u < local.rows(); ++u) {
      auto from = warm_start_.row(shard.first_row + u);
      auto to = local.row(u);
      std::copy(from.begin(), from.end(), to.begin());
    }
  }
  UpdateArgs args;
  args.r = shard.matrix.get();
  args.src = &src;
  args.dst = &local;
  args.lambda = options_.lambda;
  args.weighted_lambda = options_.weighted_regularization;
  args.tile_rows = options_.tile_rows;
  args.k = k;
  args.variant = variant_;
  args.row_solver = row_solver_.get();
  args.products = products_;

  for (int attempt = 0;; ++attempt) {
    try {
      const auto result =
          launch_update(*devices_[shard.device], name, args,
                        options_.num_groups, options_.group_size,
                        options_.functional);
      out.seconds = result.time.total_s() * fault.slowdown;
      break;
    } catch (const devsim::TransientLaunchError&) {
      // Retry up to kKernelLaunchRetries times; exhausting them counts as
      // losing the device. Any other launch error fails the same way on
      // every device, so it escapes with its own message.
      if (attempt >= kKernelLaunchRetries) {
        out.lost = true;
        return out;
      }
      out.relaunched = true;
    }
  }

  if (options_.functional) {
    for (index_t u = 0; u < local.rows(); ++u) {
      auto from = local.row(u);
      auto to = dst.row(shard.first_row + u);
      std::copy(from.begin(), from.end(), to.begin());
    }
  }
  return out;
}

std::vector<MultiDeviceAls::ShardOutcome> MultiDeviceAls::run_wave(
    const std::vector<Shard>& work, const Matrix& src, Matrix& dst,
    const char* name) {
  // Devices are the items of one parallel_for, and each runs its shards in
  // wave order: a recovery wave can hand one survivor several shards, and a
  // Device (its stats, its fault-model occurrence counter) must never
  // launch twice at once. Each shard writes only its own outcome slot and
  // dst rows; each launch nests its work-groups on the same pool.
  std::vector<std::vector<std::size_t>> by_device(devices_.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    by_device[work[i].device].push_back(i);
  }
  std::erase_if(by_device, [](const auto& shards) { return shards.empty(); });
  std::vector<ShardOutcome> outcomes(work.size());
  ThreadPool::global().parallel_for(
      0, by_device.size(), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t d = b; d < e; ++d) {
          for (const std::size_t i : by_device[d]) {
            outcomes[i] = launch_shard(work[i], src, dst, name);
          }
        }
      });
  return outcomes;
}

double MultiDeviceAls::run_elastic(std::vector<Shard> work, const Matrix& src,
                                   Matrix& dst, const char* name, Axis axis) {
  double elapsed = 0;
  double pending_detection = -1;  // >= 0 while a recovery wave is in flight
  while (!work.empty()) {
    const auto outcomes = run_wave(work, src, dst, name);

    std::vector<double> completed;
    std::vector<std::pair<index_t, index_t>> lost_ranges;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const auto& o = outcomes[i];
      if (o.relaunched) ++report_.kernel_relaunches;
      if (o.lost) {
        lost_ranges.push_back({work[i].first_row, work[i].end_row()});
        mark_dead(work[i].device);
        ++report_.launch_failures;
      } else {
        completed.push_back(o.seconds);
        auto& h = health_[work[i].device];
        ++h.heartbeats;
        ++report_.heartbeats;
        h.last_shard_seconds = o.seconds;
      }
    }

    // Half-step deadline from the heartbeat times: median x factor. With no
    // completions this wave, fall back to the last known median.
    double deadline = 0;
    if (!completed.empty()) {
      std::vector<double> sorted = completed;
      std::sort(sorted.begin(), sorted.end());
      last_median_shard_seconds_ = sorted[sorted.size() / 2];
    }
    if (last_median_shard_seconds_ > 0) {
      deadline =
          last_median_shard_seconds_ * elastic_.straggler_deadline_factor;
    }

    // Straggler handling: a healthy shard past the deadline is speculatively
    // re-executed on the fastest healthy device; its effective completion is
    // whichever copy finishes first.
    double wave_seconds = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (outcomes[i].lost) continue;
      double effective = outcomes[i].seconds;
      if (completed.size() >= 2 && deadline > 0 && effective > deadline) {
        ++report_.stragglers_detected;
        ++health_[work[i].device].stragglers;
        // Fastest healthy helper by its last observed shard time.
        std::size_t helper = work[i].device;
        double best = std::numeric_limits<double>::infinity();
        for (const auto d : alive_devices()) {
          if (d == work[i].device) continue;
          if (health_[d].last_shard_seconds < best) {
            best = health_[d].last_shard_seconds;
            helper = d;
          }
        }
        if (helper != work[i].device) {
          // Re-run the shard on the helper (identical arithmetic — the copy
          // is bitwise the same, so a duplicate write is harmless). The
          // speculative copy starts once the deadline expires.
          Shard spec{helper, work[i].matrix, work[i].first_row};
          const auto spec_out = launch_shard(spec, src, dst, name);
          if (!spec_out.lost) {
            ++report_.speculative_reexecs;
            const double spec_finish = deadline + spec_out.seconds;
            if (spec_finish < effective) {
              effective = spec_finish;
              ++report_.speculation_wins;
            }
          }
        }
      }
      wave_seconds = std::max(wave_seconds, effective);
    }

    if (pending_detection >= 0) {
      // This wave was recovery work: one MTTR sample from detection latency
      // plus the recovery compute.
      observe_recovery(pending_detection + wave_seconds);
      pending_detection = -1;
    }

    if (lost_ranges.empty()) {
      elapsed += wave_seconds;
      work.clear();
      break;
    }

    // Device loss: detection happens at the heartbeat deadline; then the
    // dead devices' ranges re-balance across the survivors and their factor
    // rows are recomputed from the last all-gathered opposing factor.
    ALSMF_CHECK_MSG(!alive_devices().empty(),
                    "all devices lost — training cannot continue");
    const double detection = deadline > 0 ? deadline : wave_seconds;
    elapsed += std::max(wave_seconds, detection);
    assign_shards();
    ++report_.repartitions;
    pending_detection = detection;
    work = plan_recovery(axis, lost_ranges);
    if (work.empty() && pending_detection >= 0) {
      observe_recovery(pending_detection);
      pending_detection = -1;
    }
  }
  return elapsed;
}

std::vector<MultiDeviceAls::Shard> MultiDeviceAls::plan_recovery(
    Axis axis, const std::vector<std::pair<index_t, index_t>>& ranges) {
  const auto alive = alive_devices();
  const Csr& full = axis == Axis::kRows ? train_ : train_t_;
  std::vector<Shard> work;
  for (const auto& [begin, end] : ranges) {
    if (begin >= end) continue;
    const auto parts = balance_by_nnz(*slice_rows(full, begin, end),
                                      alive.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].first >= parts[i].second) continue;
      work.push_back({alive[i],
                      slice_rows(full, begin + parts[i].first,
                                 begin + parts[i].second),
                      static_cast<index_t>(begin + parts[i].first)});
    }
  }
  return work;
}

double MultiDeviceAls::all_gather(Axis axis, const Matrix& src, Matrix& dst,
                                  const char* name) {
  const auto alive = alive_devices();
  if (alive.size() <= 1) return 0;

  // All-gather of the refreshed factor: with P devices each must receive
  // the (P-1)/P fraction it did not compute, over its own interconnect.
  const double factor_bytes = static_cast<double>(dst.rows()) *
                              static_cast<double>(options_.k) * sizeof(real);
  const auto parts = static_cast<double>(alive.size());
  const double bytes = factor_bytes * (parts - 1.0) / parts;

  double slowest = 0;
  std::vector<std::size_t> failed;
  for (const auto d : alive) {
    const double xfer =
        bytes / (devices_[d]->profile().pcie_bw_gbs * 1e9);
    double t = 0;
    bool ok = false;
    for (int attempt = 0; attempt <= kTransferMaxRetries; ++attempt) {
      if (!fault_model_.on_transfer_attempt(d)) {
        t += xfer;
        ok = true;
        break;
      }
      t += xfer;  // the faulted attempt still occupies the link
      if (attempt < kTransferMaxRetries) {
        ++report_.transfer_retries;
        ++health_[d].transfer_retries;
        t += kTransferBackoffSeconds * std::pow(2.0, attempt);
      }
    }
    if (!ok) failed.push_back(d);
    slowest = std::max(slowest, t);
  }
  comm_seconds_ += slowest;
  double total = slowest;

  if (!failed.empty()) {
    // A dead link strands the device's freshly computed rows: fail the
    // device over and recompute its ranges on the survivors.
    const auto& shards = axis == Axis::kRows ? x_shards_ : y_shards_;
    std::vector<std::pair<index_t, index_t>> lost_ranges;
    for (const auto d : failed) {
      for (const auto& s : shards) {
        if (s.device == d) {
          lost_ranges.push_back({s.first_row, s.end_row()});
        }
      }
      mark_dead(d);
      ++report_.link_failovers;
    }
    ALSMF_CHECK_MSG(!alive_devices().empty(),
                    "all devices lost — training cannot continue");
    assign_shards();
    ++report_.repartitions;
    if (!lost_ranges.empty()) {
      const double recovery =
          run_elastic(plan_recovery(axis, lost_ranges), src, dst, name, axis);
      observe_recovery(slowest + recovery);
      total += recovery;
    } else {
      observe_recovery(slowest);
    }
  }
  return total;
}

void MultiDeviceAls::observe_recovery(double mttr_seconds) {
  report_.mttr_total_seconds += mttr_seconds;
  ++report_.recoveries;
  if (metrics_) {
    metrics_->histogram("elastic_mttr_seconds", {},
                        "modeled detect-to-recovered time per recovery")
        .observe(mttr_seconds);
  }
}

void MultiDeviceAls::half_update(Axis axis, const Matrix& src, Matrix& dst,
                                 const char* name) {
  // Speculation and link failover re-solve rows whose first solve has
  // already landed in dst; they must start from the previous factor, the
  // one a helper or survivor holds from the last all-gather. Exact solvers
  // read no previous value, so they copy nothing.
  if (options_.functional && row_solver_->uses_warm_start()) warm_start_ = dst;
  // One table per half-update: src stays fixed through every launch of it.
  products_ = product_table_for(src, options_.functional, product_table_);
  const auto& shards = axis == Axis::kRows ? x_shards_ : y_shards_;
  modeled_seconds_ += run_elastic(shards, src, dst, name, axis);
  modeled_seconds_ += all_gather(axis, src, dst, name);
  products_ = nullptr;
  // The gathered factor, failover recomputes included, gets the divergence
  // sweep AlsSolver runs after each half-update.
  guard_factor(dst, axis == Axis::kRows ? train_ : train_t_, src, options_,
               guards_);
  metrics_update();
}

void MultiDeviceAls::run_iteration() {
  half_update(Axis::kRows, y_, x_, "update_x");
  half_update(Axis::kCols, x_, y_, "update_y");
  ++iterations_done_;
}

double MultiDeviceAls::run() {
  MultiRunConfig config;
  return run(config).modeled_seconds;
}

MultiRunReport MultiDeviceAls::run(const MultiRunConfig& config) {
  MultiRunReport report;
  if (config.metrics) set_metrics(config.metrics);
  if (config.resume && config.checkpoint) {
    report.resumed_from = resume_latest(config.checkpoint->dir);
  }
  int remaining = config.iterations >= 0
                      ? config.iterations
                      : options_.iterations - iterations_done_;
  remaining = std::max(0, remaining);
  const double before = modeled_seconds_;
  for (int i = 0; i < remaining; ++i) {
    run_iteration();
    ++report.iterations;
    if (config.checkpoint && config.checkpoint->every > 0 &&
        iterations_done_ % config.checkpoint->every == 0) {
      save_checkpoint(
          robust::checkpoint_path(config.checkpoint->dir, iterations_done_));
      if (config.checkpoint->keep > 0) {
        robust::prune_checkpoints(config.checkpoint->dir,
                                  config.checkpoint->keep);
      }
    }
  }
  report.modeled_seconds = modeled_seconds_ - before;
  report_.devices_alive = alive_device_count();
  report.elastic = report_;
  metrics_update();
  return report;
}

void MultiDeviceAls::set_metrics(obs::Registry* metrics) {
  metrics_ = metrics;
  for (auto& device : devices_) device->set_metrics(metrics);
  metrics_update();
}

void MultiDeviceAls::metrics_update() {
  if (!metrics_) return;
  const auto advance = [](obs::Counter& c, std::uint64_t target) {
    const auto cur = c.value();
    if (target > cur) c.inc(target - cur);
  };
  advance(metrics_->counter("elastic_device_failures_total"),
          report_.device_failures);
  advance(metrics_->counter("elastic_launch_failures_total"),
          report_.launch_failures);
  advance(metrics_->counter("elastic_repartitions_total"),
          report_.repartitions);
  advance(metrics_->counter("elastic_stragglers_total"),
          report_.stragglers_detected);
  advance(metrics_->counter("elastic_speculations_total"),
          report_.speculative_reexecs);
  advance(metrics_->counter("elastic_speculation_wins_total"),
          report_.speculation_wins);
  advance(metrics_->counter("elastic_transfer_retries_total"),
          report_.transfer_retries);
  advance(metrics_->counter("elastic_link_failovers_total"),
          report_.link_failovers);
  advance(metrics_->counter("elastic_kernel_relaunches_total"),
          report_.kernel_relaunches);
  advance(metrics_->counter("elastic_heartbeats_total"), report_.heartbeats);
  advance(metrics_->counter("elastic_recoveries_total"), report_.recoveries);
  metrics_->gauge("elastic_alive_devices").set(alive_device_count());
  metrics_->gauge("elastic_degraded")
      .set(alive_device_count() < report_.devices_configured ? 1.0 : 0.0);
}

std::uint64_t MultiDeviceAls::options_hash() const {
  return trajectory_hash(options_, train_);
}

robust::TrainingCheckpoint MultiDeviceAls::make_checkpoint() const {
  robust::TrainingCheckpoint ckpt;
  ckpt.options_hash = options_hash();
  ckpt.iteration = iterations_done_;
  ckpt.x = x_;
  ckpt.y = y_;
  return ckpt;
}

void MultiDeviceAls::save_checkpoint(const std::string& path) const {
  robust::save_checkpoint_file(path, make_checkpoint());
}

std::int64_t MultiDeviceAls::resume_latest(const std::string& dir) {
  const auto checkpoints = robust::list_checkpoints(dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    robust::TrainingCheckpoint ckpt;
    try {
      ckpt = robust::load_checkpoint_file(it->path);
    } catch (const Error&) {
      continue;  // corrupt/truncated: try the next-newest
    }
    if (ckpt.options_hash != options_hash()) continue;
    // The checkpoint carries only the global factor state: partitioning is
    // recomputed for whatever fleet this run has, so the writer's device
    // count is irrelevant.
    x_ = std::move(ckpt.x);
    y_ = std::move(ckpt.y);
    iterations_done_ = static_cast<int>(ckpt.iteration);
    return ckpt.iteration;
  }
  return -1;
}

}  // namespace alsmf
