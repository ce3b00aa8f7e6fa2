// perfbench: the repository benchmark driver (see ../NOTES.md).
//
//   perfbench --workload <train|train_multi|serve> --seed N
//             --seconds S --trace <0|1> [--trace-out FILE]
//
// Prints the run's metrics by name with their units, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Run;

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},   {"op_p50_ms", "ms"},    {"op_rate", "1/s"},
    {"modeled_s", "s"}, {"test_rmse", "rmse"}, {"peak_rss_mb", "MB"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train|train_multi|serve> "
               "--seed N --seconds S --trace <0|1> [--trace-out FILE]\n");
  return 2;
}

/// Prints `metrics` in `names` order; false (with a message) when one is
/// missing, has another unit or is not a finite number.
template <typename Names>
bool emit(const Run& run, const std::map<std::string, Metric>& metrics,
          const Names& names) {
  bool ok = true;
  std::string json;
  for (const auto& [name, unit] : names) {
    const auto it = metrics.find(name);
    if (it == metrics.end() || it->second.unit != unit ||
        !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s missing, mis-unitted or not finite\n",
                   name);
      ok = false;
      continue;
    }
    std::printf("%-32s %24.9g %s\n", name, it->second.value, unit);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name, it->second.value, unit);
    json += buf;
  }
  for (const auto& f : run.check_failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  if (!ok) return false;
  std::printf("# workload %s seed %llu: attempted %llu, failed %llu, checks %s\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              run.check_failures.empty() ? "passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), json.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || run.seconds <= 0) return usage();

  perfbench::Tracer& tracer = perfbench::Tracer::instance();
  tracer.set_enabled(run.trace);
  try {
    if (run.workload == "train") {
      perfbench::run_train(run);
    } else if (run.workload == "train_multi") {
      perfbench::run_train_multi(run);
    } else if (run.workload == "serve") {
      perfbench::run_serve(run);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", run.workload.c_str(), e.what());
    return 1;
  }
  run.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  if (!run.trace) return emit(run, run.end_to_end, kEndToEnd) ? 0 : 3;

  tracer.set_enabled(false);
  std::printf("# self time by module (span minus child spans, over all spans):");
  for (const auto& [layer, t] : tracer.self_time_by_layer()) {
    std::printf(" %s %.4f s / %zu calls;", layer.c_str(), t.seconds, t.calls);
  }
  std::printf("\n");
  if (!trace_out.empty()) tracer.write_json(trace_out);
  // The traced run's end-to-end figures, for the overhead comparison.
  for (const auto& [name, unit] : kEndToEnd) {
    const auto it = run.end_to_end.find(name);
    if (it != run.end_to_end.end()) {
      std::printf("# traced %-24s %24.9g %s\n", name, it->second.value, unit);
    }
  }
  return emit(run, run.per_layer, perfbench::layer_metric_names()) ? 0 : 3;
}
