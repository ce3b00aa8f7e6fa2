#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "als/solver.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "devsim/profile.hpp"
#include "robust/checkpoint.hpp"
#include "serve/model_store.hpp"

namespace alsmf::pipeline {

namespace {

/// Items ranked by training popularity (rating count, score = count): the
/// degraded-mode answer served before the first checkpoint is published.
std::vector<Recommendation> popularity_ranking(const Csr& train, int topn) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(train.cols()), 0);
  for (const index_t item : train.col_idx()) {
    ++counts[static_cast<std::size_t>(item)];
  }
  std::vector<Recommendation> ranked(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ranked[i] = {static_cast<index_t>(i), static_cast<real>(counts[i])};
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.score > b.score;
                   });
  if (topn > 0 && ranked.size() > static_cast<std::size_t>(topn)) {
    ranked.resize(static_cast<std::size_t>(topn));
  }
  return ranked;
}

/// Shared trainer/publisher progress, guarded by one mutex. Progress is
/// counted in checkpoints ("versions"): the trainer registers what it has
/// saved, the publisher advances the frontier it has published (or
/// abandoned as unloadable). `applied()` is DERIVED from both, never
/// maintained incrementally — the publisher can pick up a checkpoint file
/// before the trainer registers it, and a derived count cannot lose that
/// credit to the ordering.
struct Progress {
  std::mutex m;
  std::condition_variable cv;
  std::int64_t written = 0;  ///< checkpoints the trainer has saved
  /// Iterations of the checkpoints written this run, in order.
  std::vector<std::int64_t> written_iters;
  /// Newest iteration published to serving or abandoned as unloadable;
  /// everything at or below it is superseded (jump-to-newest).
  std::int64_t frontier_iter = -1;
  bool training_done = false;

  /// How many written checkpoints the frontier covers.
  std::int64_t applied() const {
    std::int64_t n = 0;
    for (const std::int64_t it : written_iters) {
      if (it <= frontier_iter) ++n;
    }
    return n;
  }
};

}  // namespace

std::string PipelineReport::to_json() const {
  std::string out = "{";
  char buf[128];
  auto add = [&](const char* key, double v, bool integer) {
    std::snprintf(buf, sizeof(buf), integer ? "\"%s\":%.0f," : "\"%s\":%.6f,",
                  key, v);
    out += buf;
  };
  add("iterations", iterations, true);
  add("resumed_from", static_cast<double>(resumed_from), true);
  add("swaps", static_cast<double>(swaps), true);
  add("checkpoint_load_failures", static_cast<double>(checkpoint_load_failures),
      true);
  add("index_builds", static_cast<double>(index_builds), true);
  add("index_build_seconds", index_build_seconds, false);
  add("staleness_max", static_cast<double>(staleness_max), true);
  add("requests_submitted", static_cast<double>(requests_submitted), true);
  add("requests_completed", static_cast<double>(requests_completed), true);
  add("requests_shed", static_cast<double>(requests_shed), true);
  add("cache_hits", static_cast<double>(cache_hits), true);
  add("wall_seconds", wall_seconds, false);
  out += "\"assertion_violations\":[";
  for (std::size_t i = 0; i < assertion_violations.size(); ++i) {
    if (i) out += ",";
    out += "\"";
    for (const char c : assertion_violations[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "]}";
  return out;
}

PipelineReport run_pipeline(const Csr& train, const PipelineOptions& options) {
  ALSMF_CHECK_MSG(!options.checkpoint_dir.empty(),
                  "pipeline requires a checkpoint_dir");
  ALSMF_CHECK_MSG(options.als.iterations > 0,
                  "pipeline requires als.iterations > 0");
  ALSMF_CHECK_MSG(options.checkpoint_every > 0,
                  "pipeline requires checkpoint_every > 0");
  ALSMF_CHECK_MSG(options.max_staleness >= 1,
                  "pipeline requires max_staleness >= 1");

  obs::Registry owned;
  obs::Registry& reg = options.metrics ? *options.metrics : owned;
  auto& ckpts_published = reg.counter("pipeline_checkpoints_published");
  auto& load_failures = reg.counter("pipeline_checkpoint_load_failures");
  auto& index_builds = reg.counter("pipeline_index_builds");
  auto& staleness_gauge = reg.gauge("pipeline_staleness_versions");
  auto& staleness_max_gauge = reg.gauge("pipeline_staleness_max");
  auto& build_seconds = reg.histogram("pipeline_index_build_seconds");
  {
    const double bound = options.max_staleness;
    auto* worst = &staleness_max_gauge;
    reg.add_assertion("pipeline_staleness_bound", [worst, bound] {
      const double seen = worst->value();
      if (seen <= bound) return std::string();
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "served version trailed the newest checkpoint by %.0f "
                    "versions (bound %.0f)",
                    seen, bound);
      return std::string(msg);
    });
  }

  // Service starts empty (degraded mode, popularity fallback) so load runs
  // from t=0; the first published checkpoint flips it to model answers.
  serve::ServiceOptions serve_options = options.serve;
  serve_options.registry = &reg;
  serve::RecommendService service(nullptr, serve_options);
  service.set_popularity_fallback(popularity_ranking(train, options.topn));

  devsim::Device device(devsim::profile_by_name(options.device));
  const AlsVariant variant;  // batched default; checkpoints are
                             // variant-interchangeable (see trajectory_hash)
  AlsSolver solver(train, options.als, variant, device);

  Progress progress;
  PipelineReport report;
  const Timer wall;

  // Resume happens synchronously, before any thread starts: the publisher
  // then only ever deals with checkpoints this run writes, so the swap
  // count is deterministic (one per new checkpoint, never a replay of the
  // resume point).
  if (options.resume) {
    report.resumed_from = solver.resume_latest(options.checkpoint_dir);
    progress.frontier_iter = report.resumed_from;
  }

  // --- trainer: chunked run with bounded-staleness backpressure -----------
  std::thread trainer([&] {
    while (true) {
      const int remaining = options.als.iterations - solver.iterations_done();
      if (remaining <= 0) break;
      RunConfig cfg;
      cfg.iterations = std::min(options.checkpoint_every, remaining);
      cfg.checkpoint = CheckpointConfig{options.checkpoint_dir,
                                        options.checkpoint_every,
                                        options.checkpoints_keep};
      cfg.metrics = &reg;
      const RunReport rr = solver.run(cfg);
      report.iterations += rr.iterations;
      // run() saved a checkpoint at this chunk boundary (every divides
      // iterations_done, and the final partial chunk saves at target).
      {
        std::unique_lock lk(progress.m);
        ++progress.written;
        progress.written_iters.push_back(solver.iterations_done());
        progress.cv.notify_all();
        // Backpressure: never run more than max_staleness checkpoints
        // ahead of the published (or abandoned) frontier.
        progress.cv.wait(lk, [&] {
          return progress.written - progress.applied() < options.max_staleness;
        });
      }
    }
    std::unique_lock lk(progress.m);
    progress.training_done = true;
    progress.cv.notify_all();
  });

  // --- publisher: poll checkpoints, build index, hot-swap ------------------
  std::thread publisher([&] {
    // Checkpoints at or before the resume point are already live in the
    // solver; only publish what this run writes.
    std::int64_t last_iter = report.resumed_from;
    std::int64_t abandoned_iter = -1;
    int attempts_on_newest = 0;
    constexpr int kMaxLoadAttempts = 3;
    while (true) {
      {
        std::unique_lock lk(progress.m);
        const bool done = progress.training_done &&
                          progress.applied() >= progress.written;
        if (done) break;
      }
      // Jump to the newest checkpoint; intermediate ones are superseded.
      const auto available = robust::list_checkpoints(options.checkpoint_dir);
      const robust::CheckpointInfo* newest = nullptr;
      for (const auto& info : available) {
        if (info.iteration > last_iter && info.iteration > abandoned_iter &&
            (!newest || info.iteration > newest->iteration)) {
          newest = &info;
        }
      }
      if (!newest) {
        std::this_thread::sleep_for(std::chrono::microseconds(options.poll_us));
        continue;
      }
      std::shared_ptr<serve::ModelSnapshot> snap;
      try {
        robust::TrainingCheckpoint ckpt =
            robust::load_checkpoint_file(newest->path);
        snap = serve::snapshot_from_factors(std::move(ckpt.x),
                                            std::move(ckpt.y),
                                            options.als.lambda);
      } catch (const std::exception&) {
        // Graceful fallback: keep serving the previous version. Transient
        // faults (injection, partially visible writes) succeed on a later
        // attempt; a permanently corrupt file is abandoned so the pipeline
        // keeps moving.
        load_failures.inc();
        if (++attempts_on_newest >= kMaxLoadAttempts) {
          abandoned_iter = newest->iteration;
          attempts_on_newest = 0;
          std::unique_lock lk(progress.m);
          progress.frontier_iter =
              std::max(progress.frontier_iter, abandoned_iter);
          progress.cv.notify_all();
        } else {
          std::this_thread::sleep_for(
              std::chrono::microseconds(options.poll_us));
        }
        continue;
      }
      attempts_on_newest = 0;
      if (options.use_index) {
        const Timer t;
        serve::attach_ivf_index(*snap, options.ivf);
        const double seconds = t.seconds();
        index_builds.inc();
        build_seconds.observe(seconds);
        report.index_build_seconds += seconds;
      }
      service.swap_model(std::move(snap));
      ckpts_published.inc();
      last_iter = newest->iteration;
      {
        std::unique_lock lk(progress.m);
        progress.frontier_iter = std::max(progress.frontier_iter, last_iter);
        // How many checkpoint versions the just-published snapshot trails
        // the newest written one by — the bounded-staleness evidence.
        const double staleness =
            static_cast<double>(progress.written - progress.applied());
        staleness_gauge.set(staleness);
        if (staleness > staleness_max_gauge.value()) {
          staleness_max_gauge.set(staleness);
        }
        progress.cv.notify_all();
      }
    }
  });

  // --- closed-loop Zipf load ----------------------------------------------
  std::atomic<bool> stop_load{false};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(std::max(0, options.clients)));
  const auto n_users = static_cast<std::uint64_t>(train.rows());
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(options.load_seed + static_cast<std::uint64_t>(c) * 7919);
      const ZipfSampler zipf(n_users, options.zipf);
      while (!stop_load.load(std::memory_order_relaxed)) {
        const auto user = static_cast<index_t>(zipf(rng));
        (void)service.topn(user, options.topn);
      }
    });
  }

  trainer.join();
  publisher.join();
  stop_load.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  service.stop();  // drain: conservation reaches equality

  report.wall_seconds = wall.seconds();
  report.swaps = service.metrics().swaps();
  report.checkpoint_load_failures = load_failures.value();
  report.index_builds = index_builds.value();
  report.staleness_max =
      static_cast<std::uint64_t>(staleness_max_gauge.value());
  report.requests_submitted = service.metrics().submitted();
  report.requests_completed = service.metrics().completed();
  report.requests_shed =
      service.metrics().shed_queue_full() + service.metrics().shed_deadline();
  report.cache_hits = service.cache_stats().hits;
  report.assertion_violations = reg.check_assertions();
  // The conservation assertion is <=; at drain the pipeline demands
  // equality — every submitted request completed or was shed, none dropped.
  if (report.requests_submitted !=
      report.requests_completed + report.requests_shed) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "serve_requests_dropped: submitted %llu != completed %llu + "
                  "shed %llu at drain",
                  static_cast<unsigned long long>(report.requests_submitted),
                  static_cast<unsigned long long>(report.requests_completed),
                  static_cast<unsigned long long>(report.requests_shed));
    report.assertion_violations.emplace_back(msg);
  }
  return report;
}

}  // namespace alsmf::pipeline
