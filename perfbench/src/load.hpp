// Open-loop request generator for RecommendService: one sender thread
// submits on a fixed schedule, one collector thread waits for the answers in
// submission order. Latency is measured from each request's due time, so a
// stalled service also delays the requests queued behind the stall.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// One scheduled request: a top-10 for a known user, or a fold-in of a
/// few ratings for a new one.
struct Request {
  bool fold_in = false;
  alsmf::index_t user = 0;
  std::vector<alsmf::index_t> items;
  std::vector<alsmf::real> ratings;
};

/// Zipf(1.05) users (popularity shuffled over ids) plus `fold_in_share`
/// fold-ins of 8..12 distinct items each, deterministic in `seed`.
std::vector<Request> make_schedule(std::size_t count, alsmf::index_t users,
                                   alsmf::index_t items, double fold_in_share,
                                   std::uint64_t seed);

/// Client-side view of one phase.
struct PhaseStats {
  double rate = 0;          ///< offered requests per second (inf: back to back)
  std::uint64_t sent = 0, ok = 0, failed = 0;
  std::vector<double> latency_us;  ///< per ok request, from its due time
  std::vector<double> hit_us, miss_us, fold_in_us;
  std::vector<double> late_us;     ///< sender lateness per request
  std::vector<double> traced_us, untraced_us;  ///< split by span recording
  double first_due = 0, last_sent = 0, last_done = 0;  ///< now_s() times
  double cpu_s = 0;  ///< process CPU seconds (service and client) in the phase
  /// Answers per second, from the first due time to the last answer.
  double achieved_qps() const {
    return static_cast<double>(ok) / (last_done - first_due);
  }
  /// Answers per CPU-second of the whole process.
  double answers_per_cpu_s() const { return static_cast<double>(ok) / cpu_s; }
};

/// Sends every request of a saturation burst at once.
constexpr double kBackToBack = std::numeric_limits<double>::infinity();

/// What a serving run sends: fixed-rate phases, then saturation bursts.
struct ServePlan {
  std::vector<std::pair<double, double>> paced;  ///< (requests/s, seconds)
  std::size_t burst = 0;       ///< requests per burst; 0 = no bursts
  double burst_seconds = 0;    ///< bursts repeat this long (at least 3)
  std::size_t swap_every = 0;  ///< sends between snapshot swaps; 0 = none
};

struct ServeOutcome {
  std::vector<PhaseStats> paced, bursts;
  std::uint64_t swaps = 0;
};

/// Serves `schedule` (cyclically) through a fresh RecommendService on the
/// global pool with default batching and cache, starting on a copy of
/// `snapshots[0]` and hot-swapping to a copy of the next snapshot in turn
/// every `plan.swap_every` sends. Checks every answer (status, version of a
/// published snapshot, 10 distinct in-range items in descending score),
/// `submitted == completed + shed` and the registry assertions into `run`,
/// and counts each request as an operation. When tracing, every other
/// request records spans and the serve.*, cache.* and load.* layers of the
/// paced phases are recorded.
ServeOutcome serve_traffic(
    Run& run,
    const std::vector<std::shared_ptr<alsmf::serve::ModelSnapshot>>& snapshots,
    const std::vector<Request>& schedule, const ServePlan& plan);

}  // namespace perfbench
