// Deterministic fault injection for recovery testing.
//
// A FaultPlan names the sites where faults may fire (kernel launches, row
// solves, checkpoint I/O reads, serving fold-in solves) and, per site,
// either explicit occurrence indices ("fail the 7th launch") or a
// probability drawn from a seeded counter-based hash. Decisions depend only
// on (seed, site, occurrence index), never on thread interleaving, so a
// failing run replays exactly from its seed.
//
// Production code queries `fault_at(site)` — a single relaxed atomic load
// when no injector is installed, so the hooks cost nothing in normal runs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace alsmf::robust {

enum class FaultSite : int {
  kKernelLaunch = 0,  ///< devsim::Device::launch throws before running
  kSolve = 1,         ///< solve_normal_equations poisons its result with NaN
  kIoRead = 2,        ///< checkpoint reads behave as if truncated
  kFoldInSolve = 3,   ///< serving fold-in solve fails (feeds the breaker)
  // Distributed sites, queried through the keyed API (decisions depend on a
  // caller-chosen key — e.g. (device, half-step) — not on a shared counter,
  // so concurrent shard launches replay identically from one seed).
  kDeviceFailure = 4,  ///< a simulated device dies permanently
  kStraggler = 5,      ///< a shard launch runs slowed by a drawn factor
  kLinkTransfer = 6,   ///< one interconnect transfer attempt fails
};
inline constexpr int kFaultSiteCount = 7;

const char* to_string(FaultSite site);

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Per-site probability that an occurrence faults (0 disables).
  std::array<double, kFaultSiteCount> probability{};
  /// Per-site explicit 0-based occurrence indices that always fault.
  std::array<std::vector<std::uint64_t>, kFaultSiteCount> exact{};
  /// Total faults the injector may fire across all sites.
  std::uint64_t max_faults = ~std::uint64_t{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Advances the site's occurrence counter and decides whether this
  /// occurrence faults. Thread-safe; deterministic per occurrence index.
  bool should_fault(FaultSite site);

  /// Keyed decision: deterministic in (seed, site, key) alone. The caller
  /// supplies the occurrence identity (e.g. fault_key(device, step)), so
  /// concurrent callers racing on a shared counter cannot perturb replay.
  /// Exact-plan entries for the site match against `key`. Occurrence and
  /// triggered counters still advance (for the metrics exposition).
  bool should_fault_keyed(FaultSite site, std::uint64_t key);

  /// Deterministic uniform draw in [0, 1) from (seed, site, key, salt) —
  /// the source for fault *severities* (e.g. straggler slowdown factors)
  /// so they replay with the decisions. Does not advance any counter.
  double uniform_keyed(FaultSite site, std::uint64_t key,
                       std::uint64_t salt) const;

  std::uint64_t occurrences(FaultSite site) const;
  std::uint64_t triggered(FaultSite site) const;
  /// Decisions that matched the plan but were withheld by `max_faults`.
  std::uint64_t suppressed(FaultSite site) const;
  /// triggered + suppressed: every occurrence the plan selected.
  std::uint64_t injected(FaultSite site) const;
  std::uint64_t total_triggered() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  bool decide(FaultSite site, std::uint64_t key);

  FaultPlan plan_;
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> occurrences_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> triggered_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> suppressed_{};
  std::atomic<std::uint64_t> budget_used_{0};
};

/// Installs a process-global injector (not owned; null disables). The
/// injector must outlive its installation.
void install_fault_injector(FaultInjector* injector);
FaultInjector* installed_fault_injector();

/// True when an installed injector decides this occurrence faults.
bool fault_at(FaultSite site);

/// Keyed variant of fault_at for the distributed sites; false when no
/// injector is installed.
bool fault_at_keyed(FaultSite site, std::uint64_t key);

/// Canonical key for per-device occurrences at the distributed sites:
/// device index in the high bits, the device's own occurrence counter (its
/// half-step / transfer-attempt index) in the low 32.
constexpr std::uint64_t fault_key(std::uint64_t device,
                                  std::uint64_t occurrence) {
  return (device << 32) | (occurrence & 0xffffffffULL);
}

/// RAII install/uninstall for tests.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultPlan plan) : injector_(std::move(plan)) {
    install_fault_injector(&injector_);
  }
  ~ScopedFaultInjector() { install_fault_injector(nullptr); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
};

}  // namespace alsmf::robust
