#include "devsim/device.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "devsim/check/checker.hpp"
#include "obs/registry.hpp"
#include "robust/fault_injection.hpp"

namespace alsmf::devsim {

namespace {

/// Blocks of groups a launch sums its counters over (see Device::launch).
constexpr std::size_t kCounterBlocks = 64;

}  // namespace

LaunchResult Device::launch(const std::string& name,
                            const LaunchConfig& config, const Kernel& kernel) {
  ALSMF_CHECK(config.group_size > 0);
  if (robust::fault_at(robust::FaultSite::kKernelLaunch)) {
    throw TransientLaunchError("injected fault: kernel launch '" + name +
                               "' failed");
  }
  Timer wall;
  const double trace_start_s = trace_ ? trace_->now_s() : 0;

  // Counters are summed per fixed block of consecutive groups, and the
  // blocks are merged in index order, so the double totals depend only on
  // num_groups: not on the pool size or on which worker claimed a block.
  // Checked launches run the same blocks, so their counters are
  // bit-identical to a plain launch's. The block lists and their merge
  // are kept across launches like the arenas, so a launch allocates for
  // them only when its sections outgrow them.
  const std::size_t blocks = std::min(kCounterBlocks, config.num_groups);
  if (partial_.size() < blocks) partial_.resize(blocks);
  for (std::size_t i = 0; i < blocks; ++i) partial_[i].clear();
  auto run_block = [&](std::size_t i, aligned_vector<std::byte>& arena,
                       check::LaunchChecker* checker) {
    const std::size_t end = (i + 1) * config.num_groups / blocks;
    for (std::size_t g = i * config.num_groups / blocks; g < end; ++g) {
      GroupCtx ctx(profile_, g, config.group_size, config.functional,
                   partial_[i], arena, checker);
      kernel(ctx);
    }
  };
  std::optional<check::LaunchChecker> checker;
  if (config.validate) {
    // Checked execution: serial group order on the calling thread keeps the
    // shadow memory lock-free and the finding order deterministic.
    ALSMF_CHECK_MSG(config.functional,
                    "validate=true requires a functional launch");
    checker.emplace(name, check_options_);
    reserve_arena(checked_arena_);
    for (std::size_t i = 0; i < blocks; ++i) {
      run_block(i, checked_arena_, &*checker);
    }
  } else {
    // Arenas are per worker index: the pool's worker-index contract makes
    // each one private to one running chunk. They outlive the launch, and
    // all are sized before any runs, so only the first launch pays for
    // allocating and zero-filling them, whichever workers join later ones.
    ThreadPool& pool = ThreadPool::global();
    if (arenas_.size() < pool.size()) arenas_.resize(pool.size());
    for (auto& arena : arenas_) reserve_arena(arena);
    pool.parallel_for(0, blocks,
                      [&](std::size_t b, std::size_t e, unsigned w) {
                        for (std::size_t i = b; i < e; ++i) {
                          run_block(i, arenas_[w], nullptr);
                        }
                      });
  }
  merged_.clear();
  for (std::size_t i = 0; i < blocks; ++i) merged_.merge(partial_[i]);

  LaunchResult result;
  result.counters = merged_.total();
  result.counters.groups = config.num_groups;
  result.counters.launches = 1;
  result.counters.group_size = config.group_size;
  result.time = estimate_time(result.counters, profile_);
  result.wall_seconds = wall.seconds();
  if (trace_) {
    trace_->record(profile_.name, name, result.time, trace_start_s,
                   result.wall_seconds);
  }
  if (metrics_) {
    const obs::Labels kernel_labels{{"device", profile_.name},
                                    {"kernel", name}};
    metrics_
        ->counter("devsim_kernel_launches_total", kernel_labels,
                  "Kernel launches per device/kernel")
        .inc();
    metrics_
        ->gauge("devsim_kernel_modeled_seconds_total", kernel_labels,
                "Modeled seconds accumulated per device/kernel")
        .add(result.time.total_s());
    metrics_
        ->gauge("devsim_kernel_wall_seconds_total", kernel_labels,
                "Wall seconds accumulated per device/kernel")
        .add(result.wall_seconds);
  }
  if (checker) {
    checker->finish(result.counters);
    result.check = checker->take_report();
    check_report_.merge(result.check);
  }

  // Attribute per-section stats. Sections share the launch's shape (groups,
  // group size) so utilization is modeled consistently, but the launch
  // overhead is charged only once, to the section with the largest share.
  const auto& entries = merged_.entries();
  std::size_t heaviest = 0;
  double heaviest_time = -1.0;
  std::vector<TimeEstimate> section_times(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    LaunchCounters c = entries[i].second;
    c.groups = config.num_groups;
    c.launches = 1;
    c.group_size = config.group_size;
    // Occupancy is a property of the whole kernel: every section runs at
    // the launch's scratch-pad residency, whichever section allocated it.
    c.local_alloc_peak = result.counters.local_alloc_peak;
    c.register_demand_peak = result.counters.register_demand_peak;
    TimeEstimate t = estimate_time(c, profile_);
    t.overhead_s = 0;
    section_times[i] = t;
    if (t.total_s() > heaviest_time) {
      heaviest_time = t.total_s();
      heaviest = i;
    }
  }
  if (!entries.empty()) {
    section_times[heaviest].overhead_s = result.time.overhead_s;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string key = entries[i].first.empty()
                                ? name
                                : name + "/" + entries[i].first;
    auto& s = stats_for(key);
    LaunchCounters c = entries[i].second;
    c.groups = config.num_groups;
    c.launches = 1;
    c.group_size = config.group_size;
    c.local_alloc_peak = result.counters.local_alloc_peak;
    c.register_demand_peak = result.counters.register_demand_peak;
    s.counters += c;
    s.time += section_times[i];
    s.launches += 1;
    if (i == heaviest) s.wall_seconds += result.wall_seconds;
    if (metrics_) {
      const obs::Labels section_labels{{"device", profile_.name},
                                       {"kernel", name},
                                       {"section", entries[i].first}};
      metrics_
          ->gauge("devsim_section_modeled_seconds_total", section_labels,
                  "Modeled seconds per device/kernel/section")
          .add(section_times[i].total_s());
      if (i == heaviest) {
        metrics_
            ->gauge("devsim_section_wall_seconds_total", section_labels,
                    "Wall seconds per device/kernel/section (charged to a "
                    "launch's heaviest section)")
            .add(result.wall_seconds);
      }
    }
  }
  if (entries.empty()) {
    auto& s = stats_for(name);
    s.time += result.time;
    s.wall_seconds += result.wall_seconds;
    s.launches += 1;
  }
  return result;
}

double Device::modeled_seconds() const {
  double total = 0;
  for (const auto& [name, s] : stats_) total += s.time.total_s();
  return total;
}

double Device::wall_seconds() const {
  double total = 0;
  for (const auto& [name, s] : stats_) total += s.wall_seconds;
  return total;
}

double Device::modeled_seconds_scaled(double factor) const {
  return modeled_seconds_scaled_matching("", factor);
}

double Device::modeled_seconds_scaled_matching(const std::string& needle,
                                               double factor) const {
  double total = 0;
  for (const auto& [name, s] : stats_) {
    if (!needle.empty() && name.find(needle) == std::string::npos) continue;
    TimeEstimate t = estimate_time(s.counters.scaled(factor), profile_);
    // Overhead was attributed once per launch at record time; keep the
    // recorded (unscaled) overhead rather than re-deriving it.
    t.overhead_s = s.time.overhead_s;
    total += t.total_s();
  }
  return total;
}

double Device::modeled_seconds_matching(const std::string& needle) const {
  double total = 0;
  for (const auto& [name, s] : stats_) {
    if (name.find(needle) != std::string::npos) total += s.time.total_s();
  }
  return total;
}

double Device::wall_seconds_matching(const std::string& needle) const {
  double total = 0;
  for (const auto& [name, s] : stats_) {
    if (name.find(needle) != std::string::npos) total += s.wall_seconds;
  }
  return total;
}

std::string Device::stats_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("device", profile_.name);
  w.field("modeled_seconds", modeled_seconds());
  w.field("wall_seconds", wall_seconds());
  w.key("sections").begin_array();
  for (const auto& [name, s] : stats_) {
    w.begin_object();
    w.field("name", name);
    w.field("launches", s.launches);
    w.field("modeled_s", s.time.total_s());
    w.field("compute_s", s.time.compute_s);
    w.field("memory_s", s.time.memory_s);
    w.field("overhead_s", s.time.overhead_s);
    w.field("wall_s", s.wall_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void Device::reset_stats() { stats_.clear(); }

void Device::reserve_arena(aligned_vector<std::byte>& arena) const {
  const std::size_t capacity = local_capacity_bytes(profile_);
  if (arena.size() < capacity) arena.resize(capacity);
}

KernelStats& Device::stats_for(const std::string& name) {
  auto it = std::find_if(stats_.begin(), stats_.end(),
                         [&](const auto& p) { return p.first == name; });
  if (it != stats_.end()) return it->second;
  stats_.emplace_back(name, KernelStats{});
  return stats_.back().second;
}

}  // namespace alsmf::devsim
