// Structured run-event stream: one record per training iteration, carrying
// quality (loss/RMSE), the paper's S1/S2/S3 step breakdown in both modeled
// and wall seconds, the code variant in use, and the robustness guard
// tallies. Exported as JSON lines (one object per line, schema-stable) so a
// perf trajectory can be appended to and grepped without a JSON library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace alsmf::obs {

struct IterationEvent {
  int iteration = 0;       ///< 1-based, after the iteration completed
  std::string variant;     ///< AlsVariant::name() in use
  std::string device;      ///< device profile name
  std::string row_solver = "cholesky";  ///< S3 strategy (to_string(RowSolverKind))

  /// Training objective after the iteration; NaN (exported as null) for
  /// accounting-only runs that never materialize factors.
  double loss = std::numeric_limits<double>::quiet_NaN();
  double rmse = std::numeric_limits<double>::quiet_NaN();

  // This iteration's cost (deltas, not cumulative).
  double modeled_seconds = 0;
  double wall_seconds = 0;
  double s1_modeled_s = 0, s2_modeled_s = 0, s3_modeled_s = 0;
  double s1_wall_s = 0, s2_wall_s = 0, s3_wall_s = 0;

  // Guard/repair tallies, cumulative for the run (monotone).
  std::uint64_t guard_nonfinite_rows = 0;
  std::uint64_t guard_redamped_rows = 0;
  std::uint64_t guard_zeroed_rows = 0;
  std::uint64_t solver_fallbacks = 0;
  std::uint64_t kernel_relaunches = 0;

  /// One schema-stable JSON object ({"type":"iteration",...}).
  std::string to_json() const;
};

class EventStream {
 public:
  void emit(IterationEvent event);

  std::vector<IterationEvent> events() const;
  std::size_t size() const;
  void clear();

  /// JSON lines: one IterationEvent object per line.
  void write_jsonl(std::ostream& out) const;
  void write_file(const std::string& path) const;
  std::string to_jsonl() const;

 private:
  mutable std::mutex m_;
  std::vector<IterationEvent> events_;
};

}  // namespace alsmf::obs
