// alsmf_cli: an end-user command-line tool over the library.
//
//   alsmf_cli train     --ratings r.txt --model m.bin [--k 10] [--lambda 0.1]
//                       [--iters 10] [--device cpu|gpu|mic] [--profile file]
//                       [--wr] [--variant auto|0..7]
//                       [--row-solver cholesky|cg|subspace] [--cg-iters 3]
//                       [--subspace-block 0] [--anderson-m 0]
//                       (--row-solver picks the S3 strategy — see
//                       docs/solvers.md; --anderson-m M > 0 turns on
//                       Anderson acceleration of the outer iteration)
//                       [--checkpoint-dir dir] [--checkpoint-every N]
//                       [--metrics-out m.prom] [--events-out e.jsonl]
//                       [--trace-out t.json]
//                       (crash-safe: rerunning the same command resumes from
//                       the newest valid checkpoint in dir; the three *-out
//                       flags write Prometheus text, a per-iteration JSONL
//                       event stream, and a Chrome trace with wall spans)
//   alsmf_cli train-multi --ratings r.txt [--model m.bin] [--k 10]
//                       [--lambda 0.1] [--iters 10] [--wr] [--variant 0..7]
//                       [--devices N|gpu,gpu,cpu] [--device cpu|gpu|mic]
//                       [--fail-at STEP|DEV:STEP] [--straggler-prob P]
//                       [--link-fault-prob P] [--device-fail-prob P]
//                       [--seed S] [--deadline-factor 3.0]
//                       [--checkpoint-dir dir] [--checkpoint-every N]
//                       [--metrics-out m.prom] [--report-out r.json]
//                       (elastic multi-device training under an injected
//                       fault schedule; prints a JSON recovery report and
//                       exits non-zero if any run invariant was violated)
//   alsmf_cli predict   --model m.bin --user U --item I
//   alsmf_cli recommend --model m.bin --user U [--n 10] [--ratings r.txt]
//   alsmf_cli evaluate  --model m.bin --test t.txt
//   alsmf_cli tune      --ratings r.txt [--iters 8]
//   alsmf_cli rank      --model m.bin --train r.txt --test t.txt [--n 10]
//   alsmf_cli serve     --model m.bin [--batch 64] [--cache 4096]
//                       [--lambda 0.1] [--max-queue 0] [--deadline-us 0]
//                       [--index exhaustive|ivf] [--nprobe 16] [--clusters 0]
//                       (--index=ivf scores top-N through an IVF index built
//                       over the item factors; `swap` rebuilds the index for
//                       the incoming model so the pair stays matched)
//   alsmf_cli pipeline  --ratings r.txt --checkpoint-dir dir [--k 10]
//                       [--iters 10] [--checkpoint-every 1] [--device cpu]
//                       [--index exhaustive|ivf] [--nprobe 16] [--clusters 0]
//                       [--clients 2] [--zipf 1.05] [--topn 10] [--seed 42]
//                       [--max-staleness 1] [--resume]
//                       (continuous train -> checkpoint -> index build ->
//                       hot-swap loop under closed-loop Zipf load; prints the
//                       pipeline report JSON and exits non-zero if any
//                       invariant — request conservation, staleness bound —
//                       was violated)
//   alsmf_cli devices   [--profile file]
//   alsmf_cli certify-kernels [--k 10] [--group-size 32] [--json out.json]
//                       (the kernel gate: every devsim kernel under checked
//                       execution on cpu/gpu/mic, and every generated OpenCL
//                       flavor, at the default and a 4-row staging tile,
//                       through deep lint, static profiles, the bounds &
//                       race verifier and the precision certificate with
//                       its shadow witness; exits non-zero unless every leg
//                       is clean — see docs/kernel-checking.md)
//
// A flag the subcommand does not read exits 2, naming the flag and the
// subcommand. Ratings files use the paper's `<userID, itemID, rating>` text
// format.
#include <charconv>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include <cstdlib>

#include "als/certify_kernels.hpp"
#include "als/metrics.hpp"
#include "als/multi_device.hpp"
#include "als/solver.hpp"
#include "als/variant_select.hpp"
#include "common/timer.hpp"
#include "recsys/ranking.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "devsim/profile_io.hpp"
#include "index/ivf_index.hpp"
#include "common/json.hpp"
#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "robust/fault_injection.hpp"
#include "robust/fault_metrics.hpp"
#include "robust/guards.hpp"
#include "pipeline/pipeline.hpp"
#include "recsys/recommender.hpp"
#include "recsys/tuning.hpp"
#include "serve/service.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"

namespace {

using namespace alsmf;

devsim::DeviceProfile resolve_profile(const CliArgs& args) {
  if (auto path = args.get("profile")) {
    return devsim::read_profile_file(*path);
  }
  return devsim::profile_by_name(args.get_or("device", "cpu"));
}

// All of `text` as a non-negative decimal integer. Empty, signed, partly
// numeric or out-of-range text throws Error naming the source (a --flag or
// an environment variable) and its raw value.
std::uint64_t parse_unsigned(std::string_view text, const std::string& source,
                             const std::string& raw, const char* expects) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) {
    throw Error(source + " expects " + expects + ", got '" + raw + "'");
  }
  return value;
}

// False, naming the flag and `cmd`, when the command line has a --flag
// that `cmd` does not read; each command lists the flags it reads and
// checks them before doing any work (the caller exits 2).
bool accepts_only(const CliArgs& args, const char* cmd,
                  std::initializer_list<const char*> flags) {
  const auto unknown = args.unknown_flag(flags);
  if (unknown) std::cerr << cmd << ": unknown flag --" << *unknown << "\n";
  return !unknown;
}

// A --variant mask "0".."7" (AlsVariant::from_mask); empty on anything else.
std::optional<AlsVariant> parse_variant_mask(const std::string& text) {
  if (text.size() != 1 || text[0] < '0' ||
      text[0] >= '0' + static_cast<int>(AlsVariant::kVariantCount)) {
    return std::nullopt;
  }
  return AlsVariant::from_mask(static_cast<unsigned>(text[0] - '0'));
}

int cmd_train(const CliArgs& args) {
  if (!accepts_only(args, "train",
                    {"ratings", "model", "k", "lambda", "iters", "device",
                     "profile", "wr", "variant", "row-solver", "cg-iters",
                     "subspace-block", "anderson-m", "checkpoint-dir",
                     "checkpoint-every", "metrics-out", "events-out",
                     "trace-out"})) {
    return 2;
  }
  const auto ratings_path = args.get("ratings");
  const auto model_path = args.get("model");
  if (!ratings_path || !model_path) {
    std::cerr << "train requires --ratings and --model\n";
    return 2;
  }
  const std::string variant_arg = args.get_or("variant", "auto");
  const std::optional<AlsVariant> fixed_variant =
      parse_variant_mask(variant_arg);
  if (variant_arg != "auto" && !fixed_variant) {
    std::cerr << "train: --variant must be auto or 0..7, got '"
              << variant_arg << "'\n";
    return 2;
  }
  Coo ratings = read_ratings_file(*ratings_path);
  ratings.canonicalize();  // raw logs may repeat (user, item) pairs
  const Csr train = coo_to_csr(ratings);
  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.lambda = static_cast<real>(args.get_double("lambda", 0.1));
  options.iterations = static_cast<int>(args.get_long("iters", 10));
  options.weighted_regularization = args.has_flag("wr");
  options.row_solver = parse_row_solver(args.get_or("row-solver", "cholesky"));
  options.cg_iters = static_cast<int>(args.get_long("cg-iters", 3));
  options.subspace_block =
      static_cast<int>(args.get_long("subspace-block", 0));
  options.anderson_m = static_cast<int>(args.get_long("anderson-m", 0));

  const auto profile = resolve_profile(args);
  AlsVariant variant;
  if (fixed_variant) {
    variant = *fixed_variant;
  } else {
    const TunedConfig tuned = select_config(train, options, profile);
    std::cout << "selected configuration: " << tuned.to_string() << "\n";
    options = apply_tuning(options, tuned);
    variant = tuned.variant;
  }

  // Checkpointed/resumable runs and runs with observability sinks attached
  // go through the same run(RunConfig) as a plain run.
  const auto ckpt_dir = args.get("checkpoint-dir");
  const auto metrics_out = args.get("metrics-out");
  const auto events_out = args.get("events-out");
  const auto trace_out = args.get("trace-out");
  RunConfig run_config;
  if (ckpt_dir) {
    CheckpointConfig config;
    config.dir = *ckpt_dir;
    config.every = static_cast<int>(args.get_long("checkpoint-every", 1));
    run_config.checkpoint = config;
    run_config.resume = true;
  }
  obs::EventStream events;
  devsim::TraceRecorder trace;
  if (events_out) run_config.events = &events;
  if (trace_out) run_config.trace = &trace;
  if (metrics_out) run_config.metrics = &obs::Registry::global();
  devsim::Device device(profile);
  AlsSolver solver(train, options, variant, device);
  const RunReport run_report = solver.run(run_config);
  if (run_report.resumed_from >= 0) {
    std::cout << "resumed from checkpoint at iteration "
              << run_report.resumed_from << "\n";
  }
  std::cout << "robustness: " << solver.robustness_report().to_json() << "\n";
  if (metrics_out) {
    std::ofstream out(*metrics_out);
    out << obs::Registry::global().prometheus_text();
    std::cout << "metrics: " << *metrics_out << "\n";
  }
  if (events_out) {
    events.write_file(*events_out);
    std::cout << "events: " << *events_out << " (" << events.size()
              << " records)\n";
  }
  if (trace_out) {
    trace.write_chrome_trace_file(*trace_out);
    std::cout << "trace: " << *trace_out << "\n";
  }
  Recommender::from_factors(solver.x(), solver.y()).save_file(*model_path);
  std::cout << "trained " << train.rows() << "x" << train.cols() << " ("
            << train.nnz() << " ratings) on " << profile.name
            << "\n  variant: " << variant.name()
            << "\n  modeled device seconds: " << run_report.modeled_seconds
            << "\n  train RMSE: " << solver.train_rmse() << "\n  model: "
            << *model_path << "\n";
  return 0;
}

// Elastic multi-device training with optional fault injection. Prints a
// JSON recovery report; exits non-zero when a run invariant is violated
// (metrics conservation assertions, non-finite factors, incomplete run).
int cmd_train_multi(const CliArgs& args) {
  if (!accepts_only(args, "train-multi",
                    {"ratings", "model", "k", "lambda", "iters", "wr",
                     "variant", "devices", "device", "profile", "fail-at",
                     "straggler-prob", "link-fault-prob", "device-fail-prob",
                     "seed", "deadline-factor", "checkpoint-dir",
                     "checkpoint-every", "metrics-out", "report-out"})) {
    return 2;
  }
  const auto ratings_path = args.get("ratings");
  if (!ratings_path) {
    std::cerr << "train-multi requires --ratings\n";
    return 2;
  }
  const std::string variant_arg = args.get_or("variant", "3");
  const std::optional<AlsVariant> variant = parse_variant_mask(variant_arg);
  if (!variant) {
    std::cerr << "train-multi: --variant must be 0..7, got '" << variant_arg
              << "'\n";
    return 2;
  }
  Coo ratings = read_ratings_file(*ratings_path);
  ratings.canonicalize();
  const Csr train = coo_to_csr(ratings);

  AlsOptions options;
  options.k = static_cast<int>(args.get_long("k", 10));
  options.lambda = static_cast<real>(args.get_double("lambda", 0.1));
  options.iterations = static_cast<int>(args.get_long("iters", 10));
  options.weighted_regularization = args.has_flag("wr");

  // --devices N (copies of --device/--profile) or a comma list of names.
  std::vector<devsim::DeviceProfile> profiles;
  const std::string devices_arg = args.get_or("devices", "2");
  if (devices_arg.find_first_not_of("0123456789") == std::string::npos) {
    const auto n = std::stoul(devices_arg);
    const auto profile = resolve_profile(args);
    profiles.assign(n, profile);
  } else {
    std::stringstream ss(devices_arg);
    std::string name;
    while (std::getline(ss, name, ',')) {
      if (!name.empty()) profiles.push_back(devsim::profile_by_name(name));
    }
  }

  ElasticOptions elastic;
  elastic.straggler_deadline_factor =
      args.get_double("deadline-factor", elastic.straggler_deadline_factor);

  // Fault plan: seeded probabilities plus exact kills. --fail-at takes
  // STEP or DEV:STEP (0-based shard-launch index of device DEV, default 0).
  robust::FaultPlan plan;
  if (auto seed = args.get("seed")) {
    plan.seed = parse_unsigned(*seed, "--seed", *seed,
                               "a non-negative integer");
  } else if (const char* env = std::getenv("ALSMF_FAULT_SEED")) {
    plan.seed = parse_unsigned(env, "ALSMF_FAULT_SEED", env,
                               "a non-negative integer");
  } else {
    plan.seed = 42;
  }
  plan.probability[static_cast<int>(robust::FaultSite::kStraggler)] =
      args.get_double("straggler-prob", 0.0);
  plan.probability[static_cast<int>(robust::FaultSite::kLinkTransfer)] =
      args.get_double("link-fault-prob", 0.0);
  plan.probability[static_cast<int>(robust::FaultSite::kDeviceFailure)] =
      args.get_double("device-fail-prob", 0.0);
  if (auto fail_at = args.get("fail-at")) {
    const char* expects = "STEP or DEV:STEP (non-negative integers)";
    const std::string_view text = *fail_at;
    const auto colon = text.find(':');
    std::uint64_t dev = 0;
    if (colon != std::string_view::npos) {
      dev = parse_unsigned(text.substr(0, colon), "--fail-at", *fail_at,
                           expects);
    }
    const std::uint64_t step = parse_unsigned(
        colon == std::string_view::npos ? text : text.substr(colon + 1),
        "--fail-at", *fail_at, expects);
    if (dev >= profiles.size()) {
      throw Error("--fail-at device " + std::to_string(dev) +
                  " is not one of the " + std::to_string(profiles.size()) +
                  " devices, got '" + *fail_at + "'");
    }
    plan.exact[static_cast<int>(robust::FaultSite::kDeviceFailure)].push_back(
        robust::fault_key(dev, step));
  }
  robust::ScopedFaultInjector scoped(plan);

  obs::Registry registry;
  MultiDeviceAls solver(train, options, *variant, profiles, elastic);
  MultiRunConfig config;
  config.metrics = &registry;
  if (auto ckpt_dir = args.get("checkpoint-dir")) {
    CheckpointConfig ckpt;
    ckpt.dir = *ckpt_dir;
    ckpt.every = static_cast<int>(args.get_long("checkpoint-every", 1));
    config.checkpoint = ckpt;
    config.resume = true;
  }
  Timer wall;
  const MultiRunReport run_report = solver.run(config);
  robust::export_fault_metrics(scoped.injector(), registry);

  // Run invariants: every metrics assertion, finite factors, a complete run.
  std::vector<std::string> violations = registry.check_assertions();
  if (solver.iterations_done() < options.iterations) {
    violations.push_back("run incomplete: " +
                         std::to_string(solver.iterations_done()) + " of " +
                         std::to_string(options.iterations) + " iterations");
  }
  if (!robust::nonfinite_rows(solver.x()).empty() ||
      !robust::nonfinite_rows(solver.y()).empty()) {
    violations.push_back("non-finite factor rows after training");
  }

  json::JsonWriter report;
  report.begin_object()
      .field("iterations", run_report.iterations)
      .field("resumed_from", run_report.resumed_from)
      .field("modeled_seconds", run_report.modeled_seconds)
      .field("communication_seconds", solver.communication_seconds())
      .field("wall_seconds", wall.seconds())
      .field("train_rmse", rmse(train, solver.x(), solver.y()))
      .field("fault_seed", plan.seed)
      .field_raw("elastic", run_report.elastic.to_json())
      .key("violations")
      .begin_array();
  for (const auto& v : violations) report.value(v);
  report.end_array().end_object();
  std::cout << report.str() << "\n";

  if (auto model_path = args.get("model")) {
    Recommender::from_factors(solver.x(), solver.y()).save_file(*model_path);
    std::cout << "model: " << *model_path << "\n";
  }
  if (auto metrics_out = args.get("metrics-out")) {
    std::ofstream out(*metrics_out);
    out << registry.prometheus_text();
    std::cout << "metrics: " << *metrics_out << "\n";
  }
  if (auto report_out = args.get("report-out")) {
    std::ofstream out(*report_out);
    out << report.str() << "\n";
  }
  for (const auto& v : violations) {
    std::cerr << "invariant violated: " << v << "\n";
  }
  return violations.empty() ? 0 : 1;
}

int cmd_predict(const CliArgs& args) {
  if (!accepts_only(args, "predict", {"model", "user", "item"})) return 2;
  const auto model_path = args.get("model");
  if (!model_path) {
    std::cerr << "predict requires --model\n";
    return 2;
  }
  const Recommender rec = Recommender::load_file(*model_path);
  const index_t user = args.get_long("user", 0);
  const index_t item = args.get_long("item", 0);
  std::cout << rec.predict(user, item) << "\n";
  return 0;
}

int cmd_recommend(const CliArgs& args) {
  if (!accepts_only(args, "recommend", {"model", "user", "n", "ratings"})) {
    return 2;
  }
  const auto model_path = args.get("model");
  if (!model_path) {
    std::cerr << "recommend requires --model\n";
    return 2;
  }
  const Recommender rec = Recommender::load_file(*model_path);
  const index_t user = args.get_long("user", 0);
  const int n = static_cast<int>(args.get_long("n", 10));
  Csr rated;
  const Csr* rated_ptr = nullptr;
  if (auto path = args.get("ratings")) {
    Coo coo = read_ratings_file(*path);
    coo.canonicalize();
    rated = coo_to_csr(coo);
    rated_ptr = &rated;
  }
  for (const auto& r : rec.recommend(user, n, rated_ptr)) {
    std::cout << r.item << "\t" << r.score << "\n";
  }
  return 0;
}

int cmd_evaluate(const CliArgs& args) {
  if (!accepts_only(args, "evaluate", {"model", "test"})) return 2;
  const auto model_path = args.get("model");
  const auto test_path = args.get("test");
  if (!model_path || !test_path) {
    std::cerr << "evaluate requires --model and --test\n";
    return 2;
  }
  const Recommender rec = Recommender::load_file(*model_path);
  const Coo test = read_ratings_file(*test_path);
  std::cout << "test RMSE: " << rec.rmse_on(test) << " over " << test.nnz()
            << " ratings\n";
  return 0;
}

int cmd_tune(const CliArgs& args) {
  if (!accepts_only(args, "tune", {"ratings", "iters"})) return 2;
  const auto ratings_path = args.get("ratings");
  if (!ratings_path) {
    std::cerr << "tune requires --ratings\n";
    return 2;
  }
  Coo ratings = read_ratings_file(*ratings_path);
  ratings.canonicalize();
  TuningGrid grid;
  grid.iterations = static_cast<int>(args.get_long("iters", 8));
  const TuningResult result = grid_search(ratings, grid);
  std::cout << "k\tlambda\tvalid RMSE\ttrain RMSE\n";
  for (const auto& c : result.all) {
    std::cout << c.k << "\t" << c.lambda << "\t" << c.validation_rmse << "\t"
              << c.train_rmse << "\n";
  }
  std::cout << "best: k=" << result.best.k << " lambda=" << result.best.lambda
            << " (valid RMSE " << result.best.validation_rmse << ")\n";
  return 0;
}

int cmd_rank(const CliArgs& args) {
  if (!accepts_only(args, "rank", {"model", "train", "test", "n"})) return 2;
  const auto model_path = args.get("model");
  const auto train_path = args.get("train");
  const auto test_path = args.get("test");
  if (!model_path || !train_path || !test_path) {
    std::cerr << "rank requires --model, --train and --test\n";
    return 2;
  }
  const Recommender rec = Recommender::load_file(*model_path);
  Coo train_coo = read_ratings_file(*train_path);
  train_coo.canonicalize();
  Coo test_coo = read_ratings_file(*test_path);
  test_coo.canonicalize();
  // Resize both to the model's dimensions.
  Coo train_sized(rec.users(), rec.items()), test_sized(rec.users(), rec.items());
  for (const auto& t : train_coo.entries()) train_sized.add(t.row, t.col, t.value);
  for (const auto& t : test_coo.entries()) test_sized.add(t.row, t.col, t.value);
  const int n = static_cast<int>(args.get_long("n", 10));
  const RankingMetrics m =
      evaluate_ranking(coo_to_csr(train_sized), coo_to_csr(test_sized),
                       rec.user_factors(), rec.item_factors(), n);
  std::cout << "users evaluated: " << m.evaluated_users
            << "\nhit rate@" << n << ": " << m.hit_rate
            << "\nprecision@" << n << ": " << m.precision
            << "\nrecall@" << n << ": " << m.recall
            << "\nNDCG@" << n << ": " << m.ndcg
            << "\nAUC: " << m.auc << "\n";
  return 0;
}

// Interactive serving loop over a RecommendService. Commands on stdin:
//   rec U [N]                  top-N for user U
//   predict U I                predicted rating for (U, I)
//   foldin I:R [I:R ...]       fold in a new user from item:rating pairs
//   swap PATH                  hot-swap to the model at PATH (zero downtime)
//   stats                      print the serving metrics JSON
//   quit                       exit (stats are printed on exit too)
int cmd_serve(const CliArgs& args) {
  if (!accepts_only(args, "serve",
                    {"model", "lambda", "batch", "cache", "max-queue",
                     "deadline-us", "index", "nprobe", "clusters"})) {
    return 2;
  }
  const auto model_path = args.get("model");
  if (!model_path) {
    std::cerr << "serve requires --model\n";
    return 2;
  }
  const real lambda = static_cast<real>(args.get_double("lambda", 0.1));
  serve::ServiceOptions options;
  options.max_batch =
      static_cast<std::size_t>(args.get_long("batch", 64));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_long("cache", 4096));
  options.max_queue = static_cast<std::size_t>(args.get_long("max-queue", 0));
  options.default_deadline_us = args.get_long("deadline-us", 0);
  const std::string index_mode = args.get_or("index", "exhaustive");
  if (index_mode != "exhaustive" && index_mode != "ivf") {
    std::cerr << "unknown --index mode '" << index_mode
              << "' (exhaustive|ivf)\n";
    return 2;
  }
  options.nprobe = static_cast<int>(args.get_long("nprobe", 16));
  index::IvfOptions ivf_options;
  ivf_options.clusters = static_cast<int>(args.get_long("clusters", 0));
  ivf_options.nprobe = options.nprobe;

  const Recommender rec = Recommender::load_file(*model_path);
  auto snap = serve::snapshot_from_recommender(rec, lambda);
  if (index_mode == "ivf") serve::attach_ivf_index(*snap, ivf_options);
  serve::RecommendService service(std::move(snap), options);
  std::cout << "serving " << rec.users() << " users x " << rec.items()
            << " items (model v" << service.model_version() << ", "
            << index_mode << " top-N); "
            << "commands: rec, predict, foldin, swap, stats, quit\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;
    try {
      if (cmd == "rec") {
        index_t user = 0;
        int n = 10;
        in >> user >> n;
        const auto result = service.topn(user, n);
        for (const auto& r : result.topn) {
          std::cout << r.item << "\t" << r.score << "\n";
        }
        std::cout << "# model v" << result.model_version
                  << (result.cache_hit ? " (cached)" : "");
        if (!result.ok()) std::cout << " status=" << to_string(result.status);
        std::cout << "\n";
      } else if (cmd == "predict") {
        index_t user = 0, item = 0;
        in >> user >> item;
        const auto result = service.predict(user, item);
        std::cout << result.score << "\t# model v" << result.model_version
                  << "\n";
      } else if (cmd == "foldin") {
        std::vector<index_t> items;
        std::vector<real> ratings;
        std::string pair;
        while (in >> pair) {
          const auto colon = pair.find(':');
          ALSMF_CHECK_MSG(colon != std::string::npos,
                          "foldin expects item:rating pairs");
          items.push_back(std::stoll(pair.substr(0, colon)));
          ratings.push_back(std::stof(pair.substr(colon + 1)));
        }
        const auto result = service.fold_in(items, ratings, 10);
        for (const auto& r : result.topn) {
          std::cout << r.item << "\t" << r.score << "\n";
        }
        std::cout << "# model v" << result.model_version << "\n";
      } else if (cmd == "swap") {
        std::string path;
        in >> path;
        const Recommender next = Recommender::load_file(path);
        auto next_snap = serve::snapshot_from_recommender(next, lambda);
        // Rebuild the index for the incoming factors: the snapshot always
        // carries a matched model+index pair through the swap.
        if (index_mode == "ivf") serve::attach_ivf_index(*next_snap, ivf_options);
        service.swap_model(std::move(next_snap));
        std::cout << "# swapped to model v" << service.model_version() << " ("
                  << path << ")\n";
      } else if (cmd == "stats") {
        std::cout << service.stats_json() << "\n";
      } else if (cmd == "quit" || cmd == "exit") {
        break;
      } else {
        std::cout << "# unknown command: " << cmd << "\n";
      }
    } catch (const std::exception& e) {
      std::cout << "# error: " << e.what() << "\n";
    }
  }
  std::cout << service.stats_json() << "\n";
  return 0;
}

int cmd_pipeline(const CliArgs& args) {
  if (!accepts_only(args, "pipeline",
                    {"ratings", "checkpoint-dir", "index", "k", "lambda",
                     "iters", "device", "checkpoint-every", "resume",
                     "clusters", "nprobe", "clients", "zipf", "topn", "seed",
                     "max-staleness"})) {
    return 2;
  }
  const auto ratings_path = args.get("ratings");
  const auto checkpoint_dir = args.get("checkpoint-dir");
  if (!ratings_path || !checkpoint_dir) {
    std::cerr << "pipeline requires --ratings and --checkpoint-dir\n";
    return 2;
  }
  const std::string index_mode = args.get_or("index", "ivf");
  if (index_mode != "exhaustive" && index_mode != "ivf") {
    std::cerr << "unknown --index mode '" << index_mode
              << "' (exhaustive|ivf)\n";
    return 2;
  }

  Coo ratings = read_ratings_file(*ratings_path);
  ratings.canonicalize();  // raw logs may repeat (user, item) pairs
  const Csr train = coo_to_csr(ratings);

  pipeline::PipelineOptions options;
  options.als.k = static_cast<int>(args.get_long("k", 10));
  options.als.lambda = static_cast<real>(args.get_double("lambda", 0.1));
  options.als.iterations = static_cast<int>(args.get_long("iters", 10));
  options.als.functional = true;
  options.device = args.get_or("device", "cpu");
  options.checkpoint_dir = *checkpoint_dir;
  options.checkpoint_every =
      static_cast<int>(args.get_long("checkpoint-every", 1));
  options.resume = args.has_flag("resume");
  options.use_index = index_mode == "ivf";
  options.ivf.clusters = static_cast<int>(args.get_long("clusters", 0));
  options.ivf.nprobe = static_cast<int>(args.get_long("nprobe", 16));
  options.serve.nprobe = options.ivf.nprobe;
  options.clients = static_cast<int>(args.get_long("clients", 2));
  options.zipf = args.get_double("zipf", 1.05);
  options.topn = static_cast<int>(args.get_long("topn", 10));
  options.load_seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  options.max_staleness =
      static_cast<int>(args.get_long("max-staleness", 1));

  const auto report = pipeline::run_pipeline(train, options);
  std::cout << report.to_json() << "\n";
  if (!report.ok()) {
    for (const auto& v : report.assertion_violations) {
      std::cerr << "invariant violated: " << v << "\n";
    }
    return 1;
  }
  return 0;
}

int cmd_devices(const CliArgs& args) {
  if (!accepts_only(args, "devices", {"profile"})) return 2;
  if (auto path = args.get("profile")) {
    const auto p = devsim::read_profile_file(*path);
    std::cout << "custom profile: " << p.name << " ("
              << devsim::to_string(p.kind) << ", " << p.compute_units
              << " CUs x " << p.simd_width << " lanes, "
              << p.peak_gflops() << " GFLOP/s peak)\n";
    return 0;
  }
  for (const char* name : {"cpu", "gpu", "mic"}) {
    const auto p = devsim::profile_by_name(name);
    std::cout << name << ": " << p.name << " — " << p.compute_units
              << " CUs x " << p.simd_width << " lanes @ " << p.clock_ghz
              << " GHz, " << p.mem_bw_gbs << " GB/s\n";
  }
  return 0;
}

int cmd_certify_kernels(const CliArgs& args) {
  if (!accepts_only(args, "certify-kernels", {"k", "group-size", "json"})) {
    return 2;
  }
  CertifyKernelsOptions options;
  options.k = static_cast<int>(args.get_long("k", options.k));
  options.group_size =
      static_cast<int>(args.get_long("group-size", options.group_size));

  const KernelCertificate cert = certify_kernels(options);
  if (auto json_path = args.get("json")) {
    std::ofstream out(*json_path);
    out << cert.to_json() << "\n";
  }
  for (const auto& entry : cert.checked) {
    if (entry.report.clean()) continue;
    std::cout << entry.profile << "/" << entry.kernel << ": "
              << entry.report.total_findings << " finding(s)\n";
    for (const auto& finding : entry.report.findings) {
      std::cout << "  " << finding.to_string() << "\n";
    }
  }
  std::cout << "checked execution: " << cert.checked.size()
            << " kernel/profile combinations, " << cert.checked_launches
            << " checked launches, " << cert.checked_findings
            << " finding(s)\n";

  for (const auto& tile : cert.tiles) {
    for (const auto& err : tile.errors) std::cout << "error: " << err << "\n";
    for (const auto& issue : tile.lint_issues) {
      std::cout << "deep-lint: " << issue << "\n";
    }
    for (const auto& d : tile.diagnostics) std::cout << d << "\n";
    long refs = 0, safe = 0, pairs = 0, races = 0, unprovable = 0;
    std::size_t certified = 0, witnessed = 0;
    for (const auto& f : tile.flavors) {
      refs += f.verify.refs_total;
      safe += f.verify.refs_proven_safe;
      pairs += f.verify.pairs_checked;
      races += f.verify.races_proven;
      unprovable += f.verify.refs_unprovable + f.verify.races_unprovable;
      const auto& p = f.precision;
      certified += p.certified ? 1 : 0;
      witnessed += f.witness.ran ? 1 : 0;
      if (f.clean()) continue;
      std::cout << f.kernel << ": storage=" << p.storage
                << (p.certified ? " certified" : " UNCERTIFIED")
                << " |x|<=" << p.output_ceiling << " err<=" << p.output.err;
      if (f.witness.ran) {
        std::cout << " observed=" << f.witness.observed_err
                  << (f.dominated ? " dominated" : " DOMINANCE-VIOLATED")
                  << (f.witness.overflow_observed ? " OVERFLOWED" : "");
      } else if (f.storage != StoragePrecision::kFp32) {
        std::cout << " NOT-WITNESSED";
      }
      std::cout << (f.verify.clean() ? "" : " UNVERIFIED") << "\n";
      for (const auto& finding : p.findings) {
        if (!ocl::analyze::precision::gates_certification(finding.kind)) {
          continue;
        }
        std::cout << "  " << to_string(finding.kind) << " line "
                  << finding.line << " " << finding.what << ": "
                  << finding.message << "\n";
      }
    }
    std::cout << "tile " << tile.tile_rows << ": "
              << tile.static_profiles.size() << " static profiles, "
              << tile.lint_issues.size() << " lint diagnostic(s); "
              << tile.flavors.size() << " flavors, " << refs
              << " references (" << safe << " proven safe), " << pairs
              << " MHP pairs (" << races << " races), " << unprovable
              << " unprovable; " << certified << " certified, " << witnessed
              << " witnessed; " << tile.errors.size() << " error(s)\n";
  }
  std::cout << "certify-kernels: " << (cert.clean() ? "clean" : "NOT CLEAN")
            << "\n";
  return cert.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alsmf;
  CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::cerr << "usage: alsmf_cli <train|train-multi|predict|recommend|"
                 "evaluate|tune|rank|serve|pipeline|devices|certify-kernels> "
                 "[options]\n";
    return 2;
  }
  const std::string& cmd = args.positional().front();
  try {
    if (cmd == "train") return cmd_train(args);
    if (cmd == "train-multi") return cmd_train_multi(args);
    if (cmd == "predict") return cmd_predict(args);
    if (cmd == "recommend") return cmd_recommend(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "rank") return cmd_rank(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "pipeline") return cmd_pipeline(args);
    if (cmd == "devices") return cmd_devices(args);
    if (cmd == "certify-kernels") return cmd_certify_kernels(args);
    std::cerr << "unknown command: " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
