// Findings produced by the checked-execution mode (LaunchConfig.validate).
//
// Each finding attributes one defect class to a (kernel, section, group,
// lane, buffer) coordinate so a kernel author can map it straight back to
// the OpenCL source position it mirrors. Reports merge across launches and
// export to JSON for the checked-execution leg of `alsmf_cli
// certify-kernels`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace alsmf::devsim::check {

enum class FindingKind {
  kOutOfBoundsGlobal,   ///< element access outside a global buffer
  kOutOfBoundsLocal,    ///< element access outside a scratch-pad allocation
  kIntraGroupRace,      ///< two lanes of one group, no barrier in between
  kCrossGroupRace,      ///< global-buffer conflict between work-groups
  kStaleLocalSpan,      ///< LocalSpan used after its group's arena reset
  kCounterUnderReport,  ///< kernel touched more bytes than it recorded
  kCounterOverReport,   ///< recorded traffic wildly exceeds touched bytes
};

const char* to_string(FindingKind kind);

struct Finding {
  FindingKind kind = FindingKind::kOutOfBoundsGlobal;
  std::string kernel;
  std::string section;  ///< active accounting section ("S1"...) at detection
  std::string buffer;   ///< buffer name given at registration / local_alloc
  std::string detail;
  std::size_t group = 0;
  int lane = 0;
  long long index = -1;  ///< element index when meaningful, else -1

  std::string to_string() const;
  std::string to_json() const;
};

/// Tolerances of the checked-execution mode.
struct CheckOptions {
  /// Findings kept verbatim per launch; further detections of the same
  /// launch only bump total_findings (shadow conflicts can repeat per byte).
  std::size_t max_findings_per_launch = 64;
  /// Counter honesty: recorded traffic may fall short of actually-touched
  /// bytes by at most this fraction (plus slack_bytes) before the launch is
  /// flagged as under-reporting.
  double under_report_tolerance = 0.02;
  /// Recorded traffic may exceed touched bytes by at most this factor (the
  /// model legitimately counts divergence padding, replays and spills that
  /// the functional emulation performs once).
  double over_report_factor = 64.0;
  /// Absolute slack applied to both honesty directions, so tiny launches
  /// never trip on rounding.
  double slack_bytes = 4096.0;
};

struct CheckReport {
  std::vector<Finding> findings;   ///< first max_findings_per_launch, deduped
  std::size_t total_findings = 0;  ///< all detections, including suppressed
  std::size_t launches = 0;        ///< validated launches merged in
  double touched_global_bytes = 0; ///< bytes observed through accessors
  double touched_local_bytes = 0;

  bool clean() const { return total_findings == 0; }
  void merge(const CheckReport& other);
  std::string to_json() const;
};

}  // namespace alsmf::devsim::check
