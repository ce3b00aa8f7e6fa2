#include "workloads.hpp"

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "als/multi_device.hpp"
#include "als/solver.hpp"
#include "data/datasets.hpp"
#include "data/split.hpp"
#include "devsim/profile.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "serve/model_store.hpp"
#include "sparse/convert.hpp"

namespace perfbench {

using namespace alsmf;

namespace {

constexpr int kSetups = 3;          // set-ups per run; setup_s is their median
constexpr double kTrainScale = 64;  // NTFX/64: ~1.4M training ratings
constexpr double kServeScale = 64;  // YMR1/64: ~30k users, ~12k items

/// A replica with a seeded tenth held out.
struct SplitData {
  Csr train, test;
};

SplitData make_split(const std::string& abbr, double scale, std::uint64_t seed,
                     double& generate_s, double& convert_s) {
  double t0 = now_s();
  std::pair<Coo, Coo> parts;
  {
    PB_SPAN("data.generate");
    const Coo all = generate_synthetic(
        replica_spec(dataset_by_abbr(abbr), scale, sub_seed(seed, 1)));
    parts = split_holdout(all, 0.1, sub_seed(seed, 2));
  }
  generate_s = now_s() - t0;
  t0 = now_s();
  SplitData d;
  {
    PB_SPAN("sparse.coo_to_csr");
    d.train = coo_to_csr(parts.first);
    d.test = coo_to_csr(parts.second);
  }
  convert_s = now_s() - t0;
  return d;
}

/// A functional AlsSolver with the paper options on `device`; its
/// construction wall time is appended to `construct_s`.
std::unique_ptr<AlsSolver> make_solver(const Csr& train, devsim::Device& device,
                                       std::vector<double>& construct_s) {
  const double t0 = now_s();
  PB_SPAN("als.construct");
  auto solver = std::make_unique<AlsSolver>(train, paper_options(true), paper_variant(),
                                            device);
  construct_s.push_back(now_s() - t0);
  return solver;
}

/// Runs `make` kSetups times, keeps the last, and records setup_s and the
/// data/sparse layers as medians over the repetitions.
template <typename Setup, typename Make>
Setup repeated_setup(Run& run, Make make) {
  std::vector<double> setup, gen, conv;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    // Release the previous set-up, and the heap pages it leaves behind, so
    // that each set-up starts from the same resident memory.
    s = Setup{};
    malloc_trim(0);
    const double t0 = now_s();
    s = make();
    setup.push_back(now_s() - t0);
    gen.push_back(s.generate_s);
    conv.push_back(s.convert_s);
  }
  run.e2e("setup_s", median(setup), "s");
  run.layer("data.generate_s", median(gen), "s");
  run.layer("sparse.convert_s", median(conv), "s");
  return s;
}

/// Calls `step` (one checked iteration) for `run.seconds`, counting each
/// call as an operation. In a traced run every other iteration records
/// spans, so traced and untraced times can be compared.
template <typename Step>
IterationLog timed_iterations(Run& run, Step step) {
  Tracer& tracer = Tracer::instance();
  const bool tracing = tracer.enabled();
  IterationLog log;
  const double end = now_s() + run.seconds;
  while (now_s() < end) {
    if (tracing) tracer.set_enabled(log.iter_s.size() % 2 == 0);
    ++run.attempted;
    const std::string problem = step(log);
    if (!problem.empty() && ++run.failed == 1) run.check(false, problem);
  }
  tracer.set_enabled(tracing);
  return log;
}

void record_iteration_metrics(Run& run, const IterationLog& log, double nnz) {
  const double p50 = median(log.iter_s);
  run.e2e("op_p50_ms", p50 * 1e3, "ms");
  run.e2e("op_rate", 2.0 * nnz / p50, "1/s");
  std::printf("# iterations timed: %zu, iter_s p50 %.6f p90 %.6f\n", log.iter_s.size(),
              p50, percentile(log.iter_s, 90));
}

/// Serving and index layers of train and train_multi, measured on their
/// trained model, then the layers every workload shares.
void probe_model_layers(Run& run, const ModelView& m) {
  auto snap = serve::snapshot_from_factors(*m.x, *m.y);
  run.layer("index.build_s", build_index(*snap), "s");
  const auto served = probe_serve(run, m, snap);
  probe_common(run, m, *snap->ann, served);
}

/// Everything a train / train_multi run keeps from its set-up. The data
/// sits behind a pointer: the solver keeps a reference to its CSR, which
/// must not move when the set-up is returned.
struct TrainSetup {
  std::unique_ptr<SplitData> data;
  std::unique_ptr<devsim::Device> device;
  std::unique_ptr<AlsSolver> solver;
  std::unique_ptr<MultiDeviceAls> multi;
  double generate_s = 0, convert_s = 0;
};

TrainSetup setup_train(std::uint64_t seed, bool multi, std::vector<double>& construct_s) {
  TrainSetup s;
  s.data = std::make_unique<SplitData>(
      make_split("NTFX", kTrainScale, seed, s.generate_s, s.convert_s));
  if (multi) {
    PB_SPAN("als.multi_construct");
    s.multi = std::make_unique<MultiDeviceAls>(
        s.data->train, paper_options(true), paper_variant(),
        std::vector<devsim::DeviceProfile>(4, devsim::k20c()));
  } else {
    s.device = std::make_unique<devsim::Device>(devsim::profile_by_name("gpu"));
    s.solver = make_solver(s.data->train, *s.device, construct_s);
  }
  return s;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

}  // namespace

// --- train -----------------------------------------------------------------

void run_train(Run& run) {
  std::vector<double> construct_s;
  TrainSetup s = repeated_setup<TrainSetup>(
      run, [&] { return setup_train(run.seed, false, construct_s); });
  AlsSolver& solver = *s.solver;
  IterationLog warm_up;
  const std::string warm = single_iteration(solver, warm_up);
  run.check(warm.empty(), "warm-up iteration: " + warm);
  s.device->reset_stats();

  const IterationLog log =
      timed_iterations(run, [&](IterationLog& l) { return single_iteration(solver, l); });
  record_iteration_metrics(run, log, static_cast<double>(s.data->train.nnz()));
  run.e2e("modeled_s",
          s.device->modeled_seconds() / static_cast<double>(log.iter_s.size()), "s");
  const ModelView m{&s.data->train, &s.data->test, &solver.x(), &solver.y(), run.seed};
  evaluate(run, m);

  if (Tracer::instance().enabled()) {
    run.layer("als.construct_s", median(construct_s), "s");
    record_solver_layers(run, *s.device, log);
    record_trace_overhead(run, log.traced, log.untraced);
    probe_multi(run, m, median(log.iter_s));
    probe_model_layers(run, m);
  }
}

// --- train_multi -----------------------------------------------------------

void run_train_multi(Run& run) {
  std::vector<double> construct_s;
  TrainSetup s = repeated_setup<TrainSetup>(
      run, [&] { return setup_train(run.seed, true, construct_s); });
  MultiDeviceAls& multi = *s.multi;
  IterationLog warm_up;
  const std::string warm = multi_iteration(multi, warm_up);
  run.check(warm.empty(), "warm-up iteration: " + warm);
  const double modeled0 = multi.modeled_seconds();
  const MultiCounters before = MultiCounters::of(multi);

  const IterationLog log =
      timed_iterations(run, [&](IterationLog& l) { return multi_iteration(multi, l); });
  record_iteration_metrics(run, log, static_cast<double>(s.data->train.nnz()));
  run.e2e("modeled_s",
          (multi.modeled_seconds() - modeled0) / static_cast<double>(log.iter_s.size()),
          "s");
  const ModelView m{&s.data->train, &s.data->test, &multi.x(), &multi.y(), run.seed};
  evaluate(run, m);

  // Output check: the single-device solver, run for the same iterations on
  // the same input, must produce bitwise-identical factors.
  devsim::Device device(devsim::profile_by_name("gpu"));
  const auto reference = make_solver(s.data->train, device, construct_s);
  IterationLog single;
  std::string problem;
  for (int it = 0; it < multi.iterations_done() && problem.empty(); ++it) {
    problem = single_iteration(*reference, single);
  }
  run.check(problem.empty(), "single-device reference: " + problem);
  run.check(bitwise_equal(multi.x(), reference->x()) &&
                bitwise_equal(multi.y(), reference->y()),
            "multi-device factors differ from the single-device solver's");

  if (Tracer::instance().enabled()) {
    run.layer("als.construct_s", median(construct_s), "s");
    record_solver_layers(run, device, single);
    record_multi_layers(run, multi, log, before, median(single.iter_s));
    record_trace_overhead(run, log.traced, log.untraced);
    probe_model_layers(run, m);
  }
}

// --- serve -----------------------------------------------------------------

namespace {

struct ServeSetup {
  SplitData data;
  std::shared_ptr<serve::ModelSnapshot> a, b;  ///< after iterations 4 and 5
  std::unique_ptr<devsim::Device> device;      ///< the training device
  IterationLog training;
  double generate_s = 0, convert_s = 0;
};

ServeSetup setup_serve(Run& run, std::vector<double>& construct_s,
                       std::vector<double>& index_s) {
  ServeSetup s;
  s.data = make_split("YMR1", kServeScale, run.seed, s.generate_s, s.convert_s);
  s.device = std::make_unique<devsim::Device>(devsim::profile_by_name("gpu"));
  const auto solver = make_solver(s.data.train, *s.device, construct_s);
  const int iterations = paper_options(true).iterations;
  for (int it = 0; it < iterations; ++it) {
    const std::string problem = single_iteration(*solver, s.training);
    run.check(problem.empty(), "training iteration: " + problem);
    if (it == iterations - 2) {
      s.a = serve::snapshot_from_factors(solver->x(), solver->y());
    }
  }
  s.b = serve::snapshot_from_factors(solver->x(), solver->y());
  index_s.push_back(build_index(*s.a));
  index_s.push_back(build_index(*s.b));
  return s;
}

// Open-loop rates (requests/s), fixed so that a faster service shows as
// lower latency. The light rate is well under capacity; the heavy rate is
// a fraction of it (NOTES.md). Capacity is measured by back-to-back bursts,
// per CPU-second: per wall second it swung up to 3x when a shared VM
// stalled. Swaps come every kSwapEvery sends, five times inside the light
// phase of a 10-second run.
constexpr double kLightRate = 2000;
constexpr double kHeavyRate = 20000;
constexpr std::size_t kBurst = 5000;
constexpr std::size_t kSwapEvery = 1500;
constexpr double kRecallFloor = 0.15;

}  // namespace

void run_serve(Run& run) {
  std::vector<double> construct_s, index_s;
  ServeSetup s = repeated_setup<ServeSetup>(
      run, [&] { return setup_serve(run, construct_s, index_s); });
  const index_t users = s.data.train.rows();
  const index_t items = s.data.train.cols();
  const auto schedule = make_schedule(200000, users, items, 0.05, sub_seed(run.seed, 50));

  ServePlan plan;
  plan.paced = {{kLightRate, 0.4 * run.seconds}, {kHeavyRate, 0.2 * run.seconds}};
  plan.burst = kBurst;
  plan.burst_seconds = 0.4 * run.seconds;
  plan.swap_every = kSwapEvery;
  const ServeOutcome out = serve_traffic(run, {s.a, s.b}, schedule, plan);

  const PhaseStats& light = out.paced[0];
  std::vector<double> queued = light.miss_us;  // requests that entered the queue
  queued.insert(queued.end(), light.fold_in_us.begin(), light.fold_in_us.end());
  std::vector<double> burst_qps, burst_per_cpu_s;
  for (const auto& b : out.bursts) {
    burst_qps.push_back(b.achieved_qps());
    burst_per_cpu_s.push_back(b.answers_per_cpu_s());
  }
  run.e2e("op_p50_ms", percentile(queued, 50) / 1e3, "ms");
  run.e2e("op_rate", median(burst_per_cpu_s), "1/s");
  run.e2e("modeled_s",
          s.device->modeled_seconds() / static_cast<double>(s.training.iter_s.size()),
          "s");
  for (const auto& p : out.paced) {
    std::printf("# open loop %.0f/s: %zu answers, p50 %.1f us, p99 %.1f us, sender late "
                "p99 %.1f us\n",
                p.rate, p.latency_us.size(), percentile(p.latency_us, 50),
                percentile(p.latency_us, 99), percentile(p.late_us, 99));
  }
  std::printf("# light queued p50 %.1f us over %zu requests; %zu bursts of %zu: "
              "%.0f answers per CPU-second median, %.0f answers/s median (%.0f..%.0f); "
              "swaps %llu\n",
              percentile(queued, 50), queued.size(), out.bursts.size(), kBurst,
              median(burst_per_cpu_s), median(burst_qps), percentile(burst_qps, 0),
              percentile(burst_qps, 100), static_cast<unsigned long long>(out.swaps));

  const ModelView m{&s.data.train, &s.data.test, &s.b->x, &s.b->y, run.seed};
  evaluate(run, m);
  const double recall = ivf_recall_at_10(m, *s.b->ann);
  run.check(recall >= kRecallFloor, "recall_at_10 " + std::to_string(recall) +
                                        " below floor " + std::to_string(kRecallFloor));
  std::printf("# recall_at_10 %.4f (floor %.2f)\n", recall, kRecallFloor);

  if (Tracer::instance().enabled()) {
    run.layer("als.construct_s", median(construct_s), "s");
    run.layer("index.build_s", median(index_s), "s");
    record_solver_layers(run, *s.device, s.training);
    record_trace_overhead(run, light.traced_us, light.untraced_us);
    probe_multi(run, m, median(s.training.iter_s));
    probe_common(run, m, *s.b->ann, schedule);
  }
}

}  // namespace perfbench
