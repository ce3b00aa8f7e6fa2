// Activity counters recorded by kernels during a launch. The cost model
// (cost_model.hpp) converts them into modeled execution time for a given
// DeviceProfile. Counters are pure sums, so they merge across work-groups
// and scale linearly with problem size.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace alsmf::devsim {

struct LaunchCounters {
  // --- Compute ---
  /// Useful scalar flops (roofline numerator; no divergence padding).
  double useful_flops = 0;
  /// Lane-operations executed without explicit vectorization, *including*
  /// divergence padding: kernels count max-lane trip counts times the full
  /// bundle width, so idle lanes inside a warp/vector bundle cost ops too.
  double lane_ops_scalar = 0;
  /// Lane-operations executed as explicit vector operations (OpenCL floatN).
  double lane_ops_vector = 0;
  /// Vector lane-operations on half-width (fp16/bf16) storage elements: a
  /// SIMD bundle packs twice as many of them, so the cost model prices
  /// these at double the effective vector width.
  double lane_ops_vector_half = 0;

  // --- Global memory ---
  /// Bytes moved by coalesced/streaming access.
  double global_bytes = 0;
  /// Scattered accesses: each touches a whole transaction/cache line.
  double scattered_accesses = 0;
  /// Bytes per scattered access actually used (for the useful-bytes ratio).
  double scattered_useful_bytes = 0;

  // --- On-chip ---
  double local_bytes = 0;    ///< scratch-pad (or emulated-cache) traffic
  double spill_bytes = 0;    ///< register-spill / private-array traffic

  // --- Shape ---
  std::size_t groups = 0;
  std::size_t launches = 0;
  int group_size = 0;                 ///< lanes per group (of last launch)
  std::size_t local_alloc_peak = 0;   ///< max scratch-pad bytes per group
  int register_demand_peak = 0;       ///< max registers requested per lane

  LaunchCounters& operator+=(const LaunchCounters& o) {
    useful_flops += o.useful_flops;
    lane_ops_scalar += o.lane_ops_scalar;
    lane_ops_vector += o.lane_ops_vector;
    lane_ops_vector_half += o.lane_ops_vector_half;
    global_bytes += o.global_bytes;
    scattered_accesses += o.scattered_accesses;
    scattered_useful_bytes += o.scattered_useful_bytes;
    local_bytes += o.local_bytes;
    spill_bytes += o.spill_bytes;
    groups += o.groups;
    launches += o.launches;
    if (o.group_size > group_size) group_size = o.group_size;
    if (o.local_alloc_peak > local_alloc_peak) local_alloc_peak = o.local_alloc_peak;
    if (o.register_demand_peak > register_demand_peak) {
      register_demand_peak = o.register_demand_peak;
    }
    return *this;
  }

  /// Scales all extensive quantities (used to extrapolate a downscaled
  /// replica's counters to the full dataset size).
  LaunchCounters scaled(double s) const {
    LaunchCounters c = *this;
    c.useful_flops *= s;
    c.lane_ops_scalar *= s;
    c.lane_ops_vector *= s;
    c.lane_ops_vector_half *= s;
    c.global_bytes *= s;
    c.scattered_accesses *= s;
    c.scattered_useful_bytes *= s;
    c.local_bytes *= s;
    c.spill_bytes *= s;
    c.groups = static_cast<std::size_t>(static_cast<double>(c.groups) * s);
    return c;
  }
};

/// Counters split by kernel section (the paper's S1/S2/S3 steps). Small
/// association list; kernels switch the active section by name.
class SectionCounters {
 public:
  LaunchCounters& at(const std::string& name) {
    for (auto& [n, c] : sections_) {
      if (n == name) return c;
    }
    sections_.emplace_back(name, LaunchCounters{});
    return sections_.back().second;
  }

  const std::vector<std::pair<std::string, LaunchCounters>>& entries() const {
    return sections_;
  }

  LaunchCounters total() const {
    LaunchCounters t;
    for (const auto& [n, c] : sections_) t += c;
    return t;
  }

  void merge(const SectionCounters& o) {
    for (const auto& [n, c] : o.sections_) at(n) += c;
  }

  /// Drops every section and keeps the list's storage.
  void clear() { sections_.clear(); }

 private:
  std::vector<std::pair<std::string, LaunchCounters>> sections_;
};

}  // namespace alsmf::devsim
