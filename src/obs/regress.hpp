// Perf-regression report schema and comparison.
//
// bench_regress writes a RegressReport (BENCH_regress.json) after running
// the pinned-seed canonical suite; CI re-runs the suite and compares the
// fresh report against a committed baseline with a relative tolerance.
// Every metric is modeled or otherwise deterministic, so every metric gates
// the build; wall-clock time belongs to perfbench.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace alsmf::obs {

struct RegressMetric {
  std::string name;   ///< e.g. "train_smoke.modeled_seconds"
  double value = 0;
  std::string unit;   ///< "s", "qps", "rmse", "count", ...
  bool lower_is_better = true;
};

struct RegressReport {
  int schema_version = 1;
  std::string suite = "alsmf_regress";
  std::uint64_t seed = 42;
  bool smoke = false;
  std::vector<RegressMetric> metrics;

  RegressMetric& add(const std::string& name, double value,
                     const std::string& unit, bool lower_is_better = true);
  const RegressMetric* find(const std::string& name) const;

  std::string to_json() const;
  void write_file(const std::string& path) const;
  static RegressReport from_json(const std::string& text);
  static RegressReport load_file(const std::string& path);
};

/// One compared metric: `ratio` is current/baseline (1.0 = unchanged).
struct RegressDelta {
  std::string name;
  double baseline = 0;
  double current = 0;
  double ratio = 1.0;
  bool regressed = false;
};

struct CompareResult {
  std::vector<RegressDelta> deltas;
  /// Baseline metrics absent from the current report (schema break — a
  /// silently dropped metric must fail the gate, not pass it).
  std::vector<std::string> missing;
  bool ok = true;

  /// Human-readable per-metric table plus a PASS/FAIL verdict line.
  std::string summary() const;
};

/// Direction-aware comparison: a metric regresses when it moves past
/// `tolerance` (relative) in its bad direction; improvements never fail.
/// Baselines at zero are compared absolutely against `tolerance` itself.
CompareResult compare_reports(const RegressReport& baseline,
                              const RegressReport& current, double tolerance);

}  // namespace alsmf::obs
