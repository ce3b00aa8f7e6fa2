// Shared pieces of the benchmark driver: the run context every workload
// fills, order statistics, and the in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

// --- Order statistics ------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; NaN for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// --- Spans -----------------------------------------------------------------

/// One recorded call into a library layer. `name` is "<module>.<call>"; the
/// module prefix names the layer the span is charged to.
struct Span {
  const char* name = "";
  double start = 0, end = 0;
  int parent = -1;            ///< index in the same thread's buffer, or -1
  std::uint64_t request = 0;  ///< serving request id (0 = none)
  int thread = 0;
};

/// Records spans into per-thread buffers kept in memory until write_json.
/// Disabled tracers record nothing and cost one branch per scope.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span: opened at construction, closed at destruction, nested under
  /// the innermost open span of the same thread.
  class Scope {
   public:
    /// `active` = false records nothing (per-request sampling).
    Scope(const char* name, std::uint64_t request = 0, bool active = true);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int index_ = -1;
  };

  struct SelfTime {
    double seconds = 0;
    std::size_t calls = 0;
  };
  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, SelfTime> self_time_by_layer() const;
  /// Chrome trace-event JSON of every span.
  void write_json(const std::string& path) const;

 private:
  struct Buffer;
  Buffer& local();

  bool enabled_ = false;
  std::vector<Buffer*> buffers_;  // owned; guarded by registration mutex
};

/// Shorthand used around every call into the library.
#define PB_SPAN_CAT2(a, b) a##b
#define PB_SPAN_CAT(a, b) PB_SPAN_CAT2(a, b)
#define PB_SPAN(...) \
  ::perfbench::Tracer::Scope PB_SPAN_CAT(pb_span_, __LINE__)(__VA_ARGS__)

// --- Run context -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run measured and checked.
struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what);
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();
/// User plus system CPU seconds of all this process's threads so far.
double process_cpu_s();

/// Workload-derived 64-bit sub-seed: every generator gets its own stream.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
