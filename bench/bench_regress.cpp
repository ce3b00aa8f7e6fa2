// bench_regress: the pinned-seed canonical perf suite behind CI's perf gate.
//
// Runs three canonical workloads and writes a schema-stable RegressReport
// (BENCH_regress.json by default):
//   * train_smoke        — functional ALS on a synthetic MovieLens-shaped
//                          matrix: final loss/RMSE and modeled seconds;
//   * train_fp16_storage — the same problem trained with fp16 factor
//                          storage: final RMSE and its delta vs the fp32
//                          run are gated (the quality cost of the narrow
//                          storage the precision analyzer certifies);
//   * variant_sweep      — accounting-mode modeled seconds for all 8 code
//                          variants on the same matrix (the Fig. 6 axis);
//   * serve_closed_loop  — closed-loop serving smoke: request conservation;
//   * serve_ivf          — the same service scoring through an IVF index:
//                          recall@10 against the exhaustive oracle is
//                          deterministic (pinned seed, exact rescoring) and
//                          gated, so an index regression fails CI;
//   * serve_quantized    — fp16 and per-row int8 factor snapshots: gated
//                          recall@10 of exhaustive scoring over the
//                          quantized factors against the fp32 oracle,
//                          plus the per-format byte footprint;
//   * pipeline_smoke     — train → checkpoint → index build → hot swap under
//                          load, twice; gates swap count, request
//                          conservation and the staleness assertion;
//   * elastic_faults     — multi-device training with one of four modeled
//                          cards killed mid-run: the coordinator must
//                          repartition and finish with factors bitwise
//                          equal to the no-fault run (rmse_delta_pct gated
//                          at zero), plus gated recovery counters.
// Every recorded metric is modeled or otherwise deterministic and fails
// --compare when it moves past the tolerance. The legs print their wall
// time, throughput and tail latency on stdout but do not record them:
// wall time is perfbench's (perfbench/run.py), which runs repeats.
//
//   bench_regress [--smoke] [--seed N] [--json-out BENCH_regress.json]
//                 [--compare baseline.json] [--tolerance 0.25]
//
// Exit status: 0 on success (and a passing compare), 1 on a failed compare.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <filesystem>

#include "als/metrics.hpp"
#include "als/multi_device.hpp"
#include "als/solver.hpp"
#include "bench_util.hpp"
#include "common/timer.hpp"
#include "data/synthetic.hpp"
#include "devsim/profile.hpp"
#include "index/ivf_index.hpp"
#include "obs/events.hpp"
#include "obs/regress.hpp"
#include "pipeline/pipeline.hpp"
#include "recsys/batch_score.hpp"
#include "robust/fault_injection.hpp"
#include "recsys/ranking.hpp"
#include "recsys/recommender.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"

namespace {

using namespace alsmf;

SyntheticSpec regress_spec(bool smoke, std::uint64_t seed) {
  // MovieLens-shaped: ~5x more users than items, ~20 ratings per user.
  SyntheticSpec spec;
  spec.users = smoke ? 1500 : 6000;
  spec.items = smoke ? 300 : 1200;
  spec.nnz = smoke ? 30000 : 120000;
  spec.seed = seed;
  return spec;
}

void run_train_smoke(obs::RegressReport& report, const Csr& train) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 3;
  options.functional = true;
  const AlsVariant variant = AlsVariant::from_mask(7);
  devsim::Device device(devsim::profile_by_name("gpu"));
  AlsSolver solver(train, options, variant, device);
  obs::EventStream events;
  RunConfig config;
  config.events = &events;
  Timer wall;
  const RunReport run = solver.run(config);
  report.add("train_smoke.final_loss", solver.train_loss(), "loss");
  report.add("train_smoke.final_rmse", solver.train_rmse(), "rmse");
  report.add("train_smoke.modeled_seconds", run.modeled_seconds, "s");
  report.add("train_smoke.iteration_events",
             static_cast<double>(events.size()), "count",
             /*lower_is_better=*/false);
  std::printf(
      "train_smoke: loss %.4f rmse %.4f modeled %.4fs (%d iters), "
      "wall %.3fs\n",
      solver.train_loss(), solver.train_rmse(), run.modeled_seconds,
      run.iterations, wall.seconds());
}

// fp16-storage training (docs/static-analysis.md "Precision certification"):
// every freshly solved factor block is rounded through fp16 storage, the
// training-side twin of the `_f16` kernels the precision analyzer certifies.
// The leg pins the quality cost of narrow storage: final RMSE and its delta
// against the fp32 run on the same pinned problem are deterministic, so any
// movement means the quantization path (or the solver under it) changed.
void run_train_fp16_storage(obs::RegressReport& report, const Csr& train) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 3;
  options.functional = true;
  const AlsVariant variant = AlsVariant::from_mask(7);

  devsim::Device d32(devsim::profile_by_name("gpu"));
  AlsSolver fp32(train, options, variant, d32);
  fp32.run(RunConfig{});

  AlsOptions narrow = options;
  narrow.storage = StoragePrecision::kFp16;
  devsim::Device d16(devsim::profile_by_name("gpu"));
  AlsSolver fp16(train, narrow, variant, d16);
  fp16.run(RunConfig{});

  const double rmse32 = fp32.train_rmse();
  const double rmse16 = fp16.train_rmse();
  const double delta_pct =
      rmse32 > 0 ? 100.0 * std::abs(rmse16 - rmse32) / rmse32 : 0.0;
  report.add("train_fp16_storage.final_rmse", rmse16, "rmse");
  report.add("train_fp16_storage.rmse_delta_pct", delta_pct, "pct");
  std::printf("train_fp16_storage: rmse %.4f vs fp32 %.4f (delta %.4f%%)\n",
              rmse16, rmse32, delta_pct);
}

void run_variant_sweep(obs::RegressReport& report, const Csr& train) {
  AlsOptions options = bench::paper_options();
  options.iterations = 2;
  for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
    const AlsVariant variant = AlsVariant::from_mask(mask);
    devsim::Device device(devsim::profile_by_name("gpu"));
    AlsSolver solver(train, options, variant, device);
    const RunReport run = solver.run(RunConfig{});
    report.add("variant_sweep." + variant.name() + ".modeled_seconds",
               run.modeled_seconds, "s");
    std::printf("variant_sweep: %-22s %.6f modeled s\n",
                variant.name().c_str(), run.modeled_seconds);
  }
}

void run_serve_closed_loop(obs::RegressReport& report, const Csr& train,
                           bool smoke, std::uint64_t seed) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 2;
  options.functional = true;
  Recommender rec;
  rec.train(train, options, devsim::profile_by_name("cpu"),
            AlsVariant::from_mask(7));

  serve::ServiceOptions serve_options;
  serve_options.max_batch = 32;
  serve_options.cache_capacity = 256;
  serve::RecommendService service(
      serve::snapshot_from_recommender(rec, options.lambda), serve_options);

  const std::size_t requests = smoke ? 2000 : 10000;
  Rng rng(seed);
  Timer wall;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto user = static_cast<index_t>(
        rng() % static_cast<std::uint64_t>(rec.users()));
    (void)service.topn(user, 10);
  }
  const double seconds = wall.seconds();
  service.stop();

  const auto& m = service.metrics();
  const auto violations = m.registry().check_assertions();
  for (const auto& v : violations) {
    std::printf("serve_closed_loop: ASSERTION VIOLATED: %s\n", v.c_str());
  }
  report.add("serve_closed_loop.completed",
             static_cast<double>(m.completed()), "count",
             /*lower_is_better=*/false);
  report.add("serve_closed_loop.assertion_violations",
             static_cast<double>(violations.size()), "count");
  std::printf(
      "serve_closed_loop: %zu requests in %.3fs (%.0f qps), p99 %.1fus\n",
      requests, seconds,
      seconds > 0 ? static_cast<double>(requests) / seconds : 0.0,
      m.total_us_percentile(0.99));
}

void run_serve_ivf(obs::RegressReport& report, const Csr& train, bool smoke,
                   std::uint64_t seed) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 2;
  options.functional = true;
  Recommender rec;
  rec.train(train, options, devsim::profile_by_name("cpu"),
            AlsVariant::from_mask(7));
  auto snap = serve::snapshot_from_recommender(rec, options.lambda);

  index::IvfOptions ivf_options;
  ivf_options.seed = seed;
  ivf_options.nprobe = 8;
  serve::attach_ivf_index(*snap, ivf_options);
  const auto& ann = *snap->ann;

  // Deterministic part, gated: recall@10 of the index against the
  // exhaustive oracle for a pinned user sample. Build and rescoring are
  // seeded and exact, so this number only moves when the index moves.
  const int topn = 10;
  const auto sample_users = std::min<index_t>(rec.users(), 100);
  double recall = 0;
  std::size_t candidates = 0;
  for (index_t u = 0; u < sample_users; ++u) {
    const auto exact = topn_from_factor(snap->x.row(u), snap->y, topn);
    index::IvfQueryStats stats;
    const auto approx = ann.topn(snap->x.row(u), snap->y, topn,
                                 ivf_options.nprobe, nullptr, -1, {}, &stats);
    recall += recall_at_n(approx, exact);
    candidates += stats.candidates;
  }
  recall /= static_cast<double>(sample_users);
  const double scanned_frac =
      static_cast<double>(candidates) /
      (static_cast<double>(sample_users) * static_cast<double>(rec.items()));

  // Throughput part, informational: the same service path with the index
  // attached (cache off so the scoring path is what is measured).
  serve::ServiceOptions serve_options;
  serve_options.max_batch = 32;
  serve_options.cache_capacity = 0;
  serve_options.nprobe = ivf_options.nprobe;
  serve::RecommendService service(std::move(snap), serve_options);
  const std::size_t requests = smoke ? 2000 : 10000;
  Rng rng(seed);
  Timer wall;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto user = static_cast<index_t>(
        rng() % static_cast<std::uint64_t>(rec.users()));
    (void)service.topn(user, topn);
  }
  const double seconds = wall.seconds();
  service.stop();
  const auto violations = service.metrics().registry().check_assertions();

  report.add("serve_ivf.recall_at_10", recall, "recall",
             /*lower_is_better=*/false);
  report.add("serve_ivf.scanned_frac", scanned_frac, "frac");
  report.add("serve_ivf.assertion_violations",
             static_cast<double>(violations.size()), "count");
  std::printf(
      "serve_ivf: recall@10 %.4f (%d clusters, nprobe %d, %.1f%% scanned), "
      "%zu requests (%.0f qps)\n",
      recall, ann.build_stats().clusters, ivf_options.nprobe,
      100.0 * scanned_frac, requests,
      seconds > 0 ? static_cast<double>(requests) / seconds : 0.0);
}

// Quantized factor snapshots for serving (docs/serving.md): fp16 and
// symmetric per-row int8 compression applied at snapshot-build time. The
// gate is recall@10 of exhaustive scoring over the quantized factors
// against the fp32 oracle on a pinned user sample — deterministic, so it
// only moves when the quantizer (or the factors feeding it) moves. The
// byte footprint per format rides along as a second deterministic gate.
void run_serve_quantized(obs::RegressReport& report, const Csr& train) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 2;
  options.functional = true;
  Recommender rec;
  rec.train(train, options, devsim::profile_by_name("cpu"),
            AlsVariant::from_mask(7));
  const auto exact = serve::snapshot_from_recommender(rec, options.lambda);

  const int topn = 10;
  const auto sample_users = std::min<index_t>(rec.users(), 100);
  const struct {
    const char* label;
    serve::SnapshotQuantization format;
  } formats[] = {
      {"fp16", serve::SnapshotQuantization::kFp16},
      {"int8", serve::SnapshotQuantization::kInt8},
  };
  for (const auto& fmt : formats) {
    auto snap = std::make_shared<serve::ModelSnapshot>(*exact);
    serve::quantize_snapshot(*snap, fmt.format);
    double recall = 0;
    for (index_t u = 0; u < sample_users; ++u) {
      const auto oracle = topn_from_factor(exact->x.row(u), exact->y, topn);
      const auto approx = topn_from_factor(snap->x.row(u), snap->y, topn);
      recall += recall_at_n(approx, oracle);
    }
    recall /= static_cast<double>(sample_users);
    const double bytes_frac = static_cast<double>(snap->factor_bytes()) /
                              static_cast<double>(exact->factor_bytes());
    const std::string prefix = std::string("serve_quantized.") + fmt.label;
    report.add(prefix + ".recall_at_10", recall, "recall",
               /*lower_is_better=*/false);
    report.add(prefix + ".factor_bytes_frac", bytes_frac, "frac");
    std::printf("serve_quantized: %-4s recall@10 %.4f, %.1f%% of fp32 bytes\n",
                fmt.label, recall, 100.0 * bytes_frac);
  }
}

void run_pipeline_smoke(obs::RegressReport& report, const Csr& train,
                        std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("alsmf_regress_pipeline_" +
                                   std::to_string(static_cast<unsigned long long>(seed)));
  fs::remove_all(dir);
  fs::create_directories(dir);

  pipeline::PipelineOptions options;
  options.als.k = 6;
  options.als.iterations = 4;  // 2 checkpoints -> 2 swaps
  options.als.functional = true;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 2;
  options.ivf.clusters = 8;
  options.ivf.seed = seed;
  options.clients = 2;
  options.topn = 10;
  options.load_seed = seed;
  const auto pipe = pipeline::run_pipeline(train, options);
  fs::remove_all(dir);

  for (const auto& v : pipe.assertion_violations) {
    std::printf("pipeline_smoke: ASSERTION VIOLATED: %s\n", v.c_str());
  }
  const auto dropped = pipe.requests_submitted - pipe.requests_completed -
                       pipe.requests_shed;
  report.add("pipeline_smoke.swaps", static_cast<double>(pipe.swaps), "count",
             /*lower_is_better=*/false);
  report.add("pipeline_smoke.index_builds",
             static_cast<double>(pipe.index_builds), "count",
             /*lower_is_better=*/false);
  report.add("pipeline_smoke.checkpoint_load_failures",
             static_cast<double>(pipe.checkpoint_load_failures), "count");
  report.add("pipeline_smoke.dropped_requests", static_cast<double>(dropped),
             "count");
  report.add("pipeline_smoke.assertion_violations",
             static_cast<double>(pipe.assertion_violations.size()), "count");
  // The worst observed staleness depends on thread timing (0 or 1 under
  // the bound), so only the bound is gated: its registry assertion counts
  // in assertion_violations above.
  std::printf(
      "pipeline_smoke: %d iters, %llu swaps, %llu index builds, "
      "staleness<=%llu, %llu requests (0 dropped: %s), wall %.3fs\n",
      pipe.iterations, static_cast<unsigned long long>(pipe.swaps),
      static_cast<unsigned long long>(pipe.index_builds),
      static_cast<unsigned long long>(pipe.staleness_max),
      static_cast<unsigned long long>(pipe.requests_submitted),
      dropped == 0 ? "yes" : "NO", pipe.wall_seconds);
}

// Seconds-to-RMSE-target across the S3 row-solver strategies
// (docs/solvers.md) on the modeled GPU. The target is the exact solver's
// RMSE after a pinned number of iterations (plus 2% slack), so the leg
// gates two things: the per-strategy modeled cost trajectory, and that at
// least one iterative strategy still beats the exact solve to the target
// (best_over_cholesky < 1, direction-aware).
void run_time_to_quality(obs::RegressReport& report, const Csr& train) {
  const auto profile = devsim::profile_by_name("gpu");
  const AlsVariant variant = AlsVariant::from_mask(7);
  const int k = 16;
  const int reference_iters = 6;
  const int max_rounds = 24;

  AlsOptions base;
  base.k = k;
  base.functional = true;

  // Reference trajectory: the exact solver fixes the quality bar.
  double target = 0;
  {
    devsim::Device device(profile);
    AlsSolver solver(train, base, variant, device);
    for (int i = 0; i < reference_iters; ++i) solver.run_iteration();
    target = solver.train_rmse() * 1.02;
  }

  struct Lane {
    const char* label;
    RowSolverKind row_solver;
    int anderson_m;
  };
  const std::vector<Lane> lanes = {
      {"cholesky", RowSolverKind::kCholesky, 0},
      {"cg", RowSolverKind::kCg, 0},
      {"subspace", RowSolverKind::kSubspace, 0},
      {"anderson", RowSolverKind::kCholesky, 3},
  };

  double cholesky_seconds = 0, best_iterative = -1;
  for (const auto& lane : lanes) {
    AlsOptions o = base;
    o.row_solver = lane.row_solver;
    o.anderson_m = lane.anderson_m;
    devsim::Device device(profile);
    AlsSolver solver(train, o, variant, device);
    int rounds = 0;
    while (rounds < max_rounds && solver.train_rmse() > target) {
      solver.run_iteration();
      ++rounds;
    }
    const bool reached = solver.train_rmse() <= target;
    const double seconds = device.modeled_seconds();
    const std::string prefix = std::string("time_to_quality.") + lane.label;
    report.add(prefix + ".modeled_seconds", reached ? seconds : -1, "s");
    report.add(prefix + ".iterations", static_cast<double>(rounds), "count");
    if (lane.row_solver == RowSolverKind::kCholesky &&
        lane.anderson_m == 0) {
      cholesky_seconds = seconds;
    } else if (reached &&
               (best_iterative < 0 || seconds < best_iterative)) {
      best_iterative = seconds;
    }
    std::printf("time_to_quality: %-10s %2d it, modeled %.4fs%s\n",
                lane.label, rounds, seconds,
                reached ? "" : " (target not reached)");
  }
  // < 1 means some iterative/accelerated strategy beats the exact solve.
  const double ratio = best_iterative > 0 && cholesky_seconds > 0
                           ? best_iterative / cholesky_seconds
                           : 2.0;
  report.add("time_to_quality.best_over_cholesky", ratio, "ratio");
  std::printf("time_to_quality: target rmse %.4f, best/cholesky %.4f\n",
              target, ratio);
}

void run_elastic_faults(obs::RegressReport& report, const Csr& train,
                        std::uint64_t seed) {
  AlsOptions options;
  options.k = 8;
  options.iterations = 3;
  options.functional = true;
  const AlsVariant variant = AlsVariant::from_mask(7);
  const std::vector<devsim::DeviceProfile> profiles(4, devsim::k20c());

  // No-fault reference run on the same fleet.
  MultiDeviceAls clean(train, options, variant, profiles);
  clean.run();
  const double rmse_clean = rmse(train, clean.x(), clean.y());

  // Kill card 1 at its third update launch; the coordinator must detect
  // the loss, repartition over the survivors and still converge. Row
  // solves are partition-independent, so the recovered factors are
  // bitwise equal to the clean run and the RMSE delta is exactly zero.
  robust::FaultPlan plan;
  plan.seed = seed;
  plan.exact[static_cast<int>(robust::FaultSite::kDeviceFailure)] = {
      robust::fault_key(1, 2)};
  robust::ScopedFaultInjector scoped(plan);
  MultiDeviceAls faulted(train, options, variant, profiles);
  const double modeled = faulted.run();
  const double rmse_fault = rmse(train, faulted.x(), faulted.y());
  const auto& er = faulted.elastic_report();

  const double delta_pct =
      rmse_clean > 0 ? 100.0 * std::abs(rmse_fault - rmse_clean) / rmse_clean
                     : 0.0;
  report.add("elastic_faults.rmse_delta_pct", delta_pct, "pct");
  report.add("elastic_faults.final_rmse", rmse_fault, "rmse");
  report.add("elastic_faults.device_failures",
             static_cast<double>(er.device_failures), "count",
             /*lower_is_better=*/false);
  report.add("elastic_faults.repartitions",
             static_cast<double>(er.repartitions), "count",
             /*lower_is_better=*/false);
  report.add("elastic_faults.recoveries", static_cast<double>(er.recoveries),
             "count", /*lower_is_better=*/false);
  report.add("elastic_faults.devices_alive",
             static_cast<double>(er.devices_alive), "count",
             /*lower_is_better=*/false);
  report.add("elastic_faults.modeled_seconds", modeled, "s");
  report.add("elastic_faults.mttr_mean_seconds", er.mttr_mean_seconds(), "s");
  std::printf(
      "elastic_faults: rmse %.4f (delta %.4f%%), %llu failure(s), "
      "%llu repartition(s), %d/4 alive, modeled %.4fs, mttr %.4fs\n",
      rmse_fault, delta_pct,
      static_cast<unsigned long long>(er.device_failures),
      static_cast<unsigned long long>(er.repartitions), er.devices_alive,
      modeled, er.mttr_mean_seconds());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = alsmf::bench::parse_bench_args(argc, argv);
  const std::string out_path =
      args.json_out.empty() ? "BENCH_regress.json" : args.json_out;

  obs::RegressReport report;
  report.seed = args.seed;
  report.smoke = args.smoke;

  const Csr train = generate_synthetic_csr(regress_spec(args.smoke, args.seed));
  std::printf("# bench_regress: %s suite, seed %llu, %lld x %lld, %lld nnz\n",
              args.smoke ? "smoke" : "full",
              static_cast<unsigned long long>(args.seed),
              static_cast<long long>(train.rows()),
              static_cast<long long>(train.cols()),
              static_cast<long long>(train.nnz()));

  run_train_smoke(report, train);
  run_train_fp16_storage(report, train);
  run_variant_sweep(report, train);
  run_time_to_quality(report, train);
  run_serve_closed_loop(report, train, args.smoke, args.seed);
  run_serve_ivf(report, train, args.smoke, args.seed);
  run_serve_quantized(report, train);
  run_pipeline_smoke(report, train, args.seed);
  run_elastic_faults(report, train, args.seed);

  report.write_file(out_path);
  std::printf("# wrote %s (%zu metrics)\n", out_path.c_str(),
              report.metrics.size());

  if (const auto baseline_path = args.cli.get("compare")) {
    const double tolerance = args.cli.get_double("tolerance", 0.25);
    const auto baseline = obs::RegressReport::load_file(*baseline_path);
    const auto result = obs::compare_reports(baseline, report, tolerance);
    std::printf("%s", result.summary().c_str());
    return result.ok ? 0 : 1;
  }
  return 0;
}
