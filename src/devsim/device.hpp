// Device: launches work-group kernels over the global thread pool, merges the
// recorded activity, and keeps per-kernel and per-section modeled-time
// statistics (sections give the paper's S1/S2/S3 breakdowns, Fig. 8).
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "devsim/check/report.hpp"
#include "devsim/context.hpp"
#include "devsim/cost_model.hpp"
#include "devsim/counters.hpp"
#include "devsim/profile.hpp"
#include "devsim/trace.hpp"

namespace alsmf::obs {
class Registry;
}

namespace alsmf::devsim {

/// NDRange launch shape: `num_groups` work-groups of `group_size` lanes.
struct LaunchConfig {
  std::size_t num_groups = 0;
  int group_size = 32;
  /// When false the kernel only records activity (no arithmetic); modeled
  /// time is identical, wall time is much smaller.
  bool functional = true;
  /// Checked execution: route accessor traffic through the shadow-memory
  /// checker. Groups then run serially on the calling thread (deterministic
  /// diagnostics, no locks) — modeled time is unchanged, wall time grows.
  /// Requires functional=true. See docs/kernel-checking.md.
  bool validate = false;
};

/// One kernel launch result.
struct LaunchResult {
  LaunchCounters counters;  ///< all sections merged
  TimeEstimate time;
  double wall_seconds = 0;
  check::CheckReport check;  ///< populated only for validate=true launches
};

/// Aggregated statistics for one kernel-name/section pair.
struct KernelStats {
  LaunchCounters counters;
  TimeEstimate time;      ///< section time: no launch overhead attributed
  double wall_seconds = 0;
  std::size_t launches = 0;
};

/// A transient launch failure: Device::launch throws it when the injected
/// robust::FaultSite::kKernelLaunch fault fires, before any group runs.
/// Trainers relaunch on this type only; any other launch error (a scratch-pad
/// overflow, a bad shape) would fail the same way again, so it escapes.
class TransientLaunchError : public Error {
 public:
  using Error::Error;
};

/// A Device runs one launch at a time: launches on one Device must not
/// overlap (its statistics and its scratch-pad arenas are unsynchronized).
/// Different Devices may launch concurrently.
class Device {
 public:
  using Kernel = std::function<void(GroupCtx&)>;

  explicit Device(DeviceProfile profile) : profile_(std::move(profile)) {}

  const DeviceProfile& profile() const { return profile_; }

  /// Launches `kernel` once per work-group; blocks until done. Counters are
  /// merged, priced with the cost model, and accumulated per section under
  /// "name/section" (plain "name" for the unnamed section). Throws
  /// TransientLaunchError when an injected launch fault fires.
  LaunchResult launch(const std::string& name, const LaunchConfig& config,
                      const Kernel& kernel);

  /// Modeled seconds accumulated since construction / last reset.
  double modeled_seconds() const;
  double wall_seconds() const;

  /// Per-"name/section" statistics (insertion-ordered by first use).
  const std::vector<std::pair<std::string, KernelStats>>& stats() const {
    return stats_;
  }

  /// Sum of modeled section times whose key contains `needle`.
  double modeled_seconds_matching(const std::string& needle) const;
  /// Sum of wall seconds whose key contains `needle` (wall time is charged
  /// to a launch's heaviest section, mirroring stats()).
  double wall_seconds_matching(const std::string& needle) const;

  /// Modeled seconds after scaling every section's extensive counters by
  /// `factor` — extrapolates a downscaled replica's run to the full dataset
  /// (launch counts stay fixed, so per-launch utilization improves exactly
  /// as it would at full size).
  double modeled_seconds_scaled(double factor) const;
  double modeled_seconds_scaled_matching(const std::string& needle,
                                         double factor) const;

  void reset_stats();

  /// Attaches a timeline recorder; every subsequent launch appends one
  /// trace event (null detaches). Not owned.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Attaches a metrics registry; every subsequent launch accumulates
  /// devsim_kernel_* (per device/kernel) and devsim_section_* (per
  /// device/kernel/section) series (null detaches). Not owned.
  void set_metrics(obs::Registry* metrics) { metrics_ = metrics; }

  /// Per-section statistics as one JSON object (modeled + wall seconds,
  /// launch counts) — the machine-readable face of stats().
  std::string stats_json() const;

  /// Tolerances applied to subsequent validate=true launches.
  check::CheckOptions& check_options() { return check_options_; }

  /// All findings accumulated across validate=true launches since
  /// construction / last reset_check_report().
  const check::CheckReport& check_report() const { return check_report_; }
  void reset_check_report() { check_report_ = {}; }

 private:
  KernelStats& stats_for(const std::string& name);
  /// Sizes `arena` to the profile's scratch-pad capacity (GroupCtx's).
  void reserve_arena(aligned_vector<std::byte>& arena) const;

  DeviceProfile profile_;
  std::vector<std::pair<std::string, KernelStats>> stats_;
  TraceRecorder* trace_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  check::CheckOptions check_options_;
  check::CheckReport check_report_;
  /// Scratch-pad arenas kept across launches: one per pool worker index,
  /// and one for checked launches (which run on the calling thread).
  /// Kernels must not read scratch-pad they have not written in the same
  /// group, as on hardware.
  std::vector<aligned_vector<std::byte>> arenas_;
  aligned_vector<std::byte> checked_arena_;
  /// Per-block section counters and their merge, cleared by each launch.
  std::vector<SectionCounters> partial_;
  SectionCounters merged_;
};

}  // namespace alsmf::devsim
