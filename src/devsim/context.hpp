// Per-work-group kernel execution context.
//
// Kernels in this library are written at work-group granularity (the
// paper's thread batching unit): the runtime calls the kernel once per
// group, and the kernel iterates over its lanes explicitly. Barriers in the
// OpenCL source become ordinary sequence points between lane loops.
//
// The context doubles as the activity recorder: kernels report lane
// operations and memory traffic through it, split into named sections
// (the paper's S1/S2/S3 steps), and the cost model prices the totals.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "devsim/check/span.hpp"
#include "devsim/counters.hpp"
#include "devsim/profile.hpp"

namespace alsmf::devsim {

class GroupCtx {
 public:
  GroupCtx(const DeviceProfile& profile, std::size_t group_id, int group_size,
           bool functional, SectionCounters& counters,
           aligned_vector<std::byte>& arena,
           check::LaunchChecker* checker = nullptr)
      : profile_(&profile),
        group_id_(group_id),
        group_size_(group_size),
        functional_(functional),
        sections_(&counters),
        cur_(&counters.at("")),
        arena_(&arena),
        checker_(checker) {
    // Fixed-capacity bump arena: never reallocates during the kernel so
    // earlier local_alloc spans stay valid.
    if (arena_->size() < local_capacity()) arena_->resize(local_capacity());
    if (checker_) checker_->begin_group(group_id_, group_size_);
  }

  // --- Shape ---
  std::size_t group_id() const { return group_id_; }
  int group_size() const { return group_size_; }
  int simd_width() const { return profile_->simd_width; }
  const DeviceProfile& profile() const { return *profile_; }

  /// SIMD bundles (warps / vector packets) this group occupies. Lanes are
  /// padded up to full bundles, exactly as hardware warps are.
  int num_bundles() const {
    return (group_size_ + profile_->simd_width - 1) / profile_->simd_width;
  }

  /// False in accounting-only launches: kernels must still record activity
  /// but may skip the arithmetic (used by the figure sweeps, which need the
  /// cost model inputs, not the factor matrices).
  bool functional() const { return functional_; }

  /// Switches the active accounting section (e.g. "S1"). Subsequent
  /// recording calls accumulate under this name.
  void section(const std::string& name) {
    cur_ = &sections_->at(name);
    if (checker_) checker_->set_section(name);
  }

  // --- Checked execution (LaunchConfig.validate) ---
  /// True when this launch runs under the shadow-memory checker.
  bool validate() const { return checker_ != nullptr; }
  check::LaunchChecker* checker() const { return checker_; }

  /// Declares which lane the following accessor traffic belongs to, for
  /// race attribution. No cost is recorded; a no-op without a checker.
  void set_lane(int lane) {
    if (checker_) checker_->set_lane(lane);
  }

  /// Work-group barrier sequence point: accessor traffic before and after
  /// the call can never race intra-group. Records no cost (kernels price
  /// barriers through their section formulas); a no-op without a checker.
  void group_barrier() {
    if (checker_) checker_->barrier();
  }

  /// Wraps a host buffer as a checked global accessor. The name keys the
  /// shadow registry, so pass the same name for the same buffer.
  /// `device_element_bytes` (default sizeof(T)) is the element width of the
  /// *modeled* device layout when it differs from the host representation —
  /// e.g. the paper's col_idx array is 32-bit on device but int64 on the
  /// host — and only affects counter-honesty accounting.
  template <class T>
  check::GlobalSpan<T> global_span(const char* name, T* data, std::size_t n,
                                   std::size_t device_element_bytes =
                                       sizeof(T)) {
    if (!checker_) return {data, n};
    const int buffer = checker_->register_global(
        name, static_cast<const void*>(data), n * sizeof(T),
        static_cast<double>(device_element_bytes) /
            static_cast<double>(sizeof(T)));
    return {data, n, checker_, buffer};
  }

  /// Per-group scratch-pad capacity: the hardware scratch-pad size, or the
  /// emulation cap on devices that back local memory with cached DRAM.
  std::size_t local_capacity() const { return local_capacity_bytes(*profile_); }

  /// Scratch-pad bytes still allocatable in this group.
  std::size_t local_remaining() const {
    return local_capacity() > offset_ ? local_capacity() - offset_ : 0;
  }

  // --- Local (scratch-pad) memory ---
  /// Allocates `n` elements of group-shared scratch-pad. On devices with a
  /// hardware scratch-pad the per-group capacity is enforced (an OpenCL
  /// kernel requesting more fails to launch). The arena resets per group.
  /// `local_alloc(0)` is well-defined: an empty span, no capacity consumed.
  template <class T>
  check::LocalSpan<T> local_alloc(std::size_t n, const char* name = "local") {
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    const std::size_t aligned = (bytes + 63) / 64 * 64;
    const std::size_t new_offset = offset_ + aligned;
    ALSMF_CHECK_MSG(new_offset <= local_capacity(),
                    local_overflow_message(name, bytes));
    auto* p = reinterpret_cast<T*>(arena_->data() + offset_);
    const std::size_t at = offset_;
    offset_ = new_offset;
    if (new_offset > cur_->local_alloc_peak) {
      cur_->local_alloc_peak = new_offset;
    }
    if (checker_) {
      return {p, n, checker_, name, at, checker_->local_generation()};
    }
    return {p, n};
  }

  // --- Compute recording ---
  /// Records lane-operations in scalar-mode code (divergence-padded: the
  /// caller counts max-lane trips times the full bundle width).
  void ops_scalar(double ops) { cur_->lane_ops_scalar += ops; }
  /// Records lane-operations executed as explicit vector operations.
  void ops_vector(double ops) { cur_->lane_ops_vector += ops; }
  /// Vector lane-operations on half-width (fp16/bf16) storage elements;
  /// priced at doubled effective vector width by the cost model.
  void ops_vector_half(double ops) { cur_->lane_ops_vector_half += ops; }
  /// Records useful flops (roofline numerator only; no time cost).
  void flops(double n) { cur_->useful_flops += n; }

  // --- Memory recording ---
  /// Streaming / coalesced global traffic.
  void global_read_coalesced(double bytes) { cur_->global_bytes += bytes; }
  void global_write_coalesced(double bytes) { cur_->global_bytes += bytes; }
  /// Scattered accesses: `n` independent accesses of `bytes_each` useful
  /// bytes; each pays a full memory transaction.
  void global_read_scattered(double n, double bytes_each) {
    cur_->scattered_accesses += n;
    cur_->scattered_useful_bytes += n * bytes_each;
  }
  void global_write_scattered(double n, double bytes_each) {
    cur_->scattered_accesses += n;
    cur_->scattered_useful_bytes += n * bytes_each;
  }
  /// Scratch-pad traffic (or cache traffic when the scratch-pad is
  /// emulated, as OpenCL does on CPU/MIC).
  void local_read(double bytes) { cur_->local_bytes += bytes; }
  void local_write(double bytes) { cur_->local_bytes += bytes; }
  /// Register-spill traffic (always priced).
  void spill(double bytes) { cur_->spill_bytes += bytes; }

  /// Repeated traversal of a per-row working set that was already fetched
  /// once: hits the cache on CPU/MIC, goes back to device memory on GPU.
  void reread(double accesses, double bytes_each) {
    if (profile_->rereads_cached) {
      cur_->local_bytes += accesses * bytes_each;
    } else {
      cur_->scattered_accesses += accesses;
      cur_->scattered_useful_bytes += accesses * bytes_each;
    }
  }

  /// Traffic of a dynamically-indexed private array (the paper's
  /// `sum[k*k]`): spilled to off-chip local memory on GPUs, an ordinary
  /// L1-resident stack array (free at this model's granularity) elsewhere.
  void private_array_traffic(double bytes) {
    if (profile_->private_arrays_offchip) cur_->spill_bytes += bytes;
  }

  /// Lane-ops of flat-mapped (one work-item per row) code: scaled so the
  /// cost model's scalar_efficiency denominator yields the profile's
  /// flat_mapping_efficiency instead.
  void ops_flat(double ops) {
    cur_->lane_ops_scalar += ops * profile_->scalar_efficiency /
                             std::max(profile_->flat_mapping_efficiency, 1e-6);
  }

  /// Declares per-lane register demand; the kernel decides spilling from
  /// profile().max_registers_per_lane, this records the peak for reports.
  void register_demand(int regs) {
    if (regs > cur_->register_demand_peak) cur_->register_demand_peak = regs;
  }

 private:
  /// What a failed local_alloc reports: the buffer, its size, where it
  /// would start and the capacity it overruns. Built only on failure.
  std::string local_overflow_message(const char* name,
                                     std::size_t bytes) const {
    return std::string("local buffer '") + name + "' of " +
           std::to_string(bytes) + " bytes at offset " +
           std::to_string(offset_) + " exceeds the " +
           std::to_string(local_capacity()) + "-byte " +
           (profile_->has_hw_local_mem ? "scratch-pad" :
                                         "emulated scratch-pad") +
           " of " + profile_->name;
  }

  const DeviceProfile* profile_;
  std::size_t group_id_;
  int group_size_;
  bool functional_;
  SectionCounters* sections_;
  LaunchCounters* cur_;
  aligned_vector<std::byte>* arena_;
  check::LaunchChecker* checker_ = nullptr;
  std::size_t offset_ = 0;
};

}  // namespace alsmf::devsim
