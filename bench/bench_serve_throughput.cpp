// Closed-loop serving throughput: batched RecommendService vs the naive
// one-request-per-solve path, on a synthetic MovieLens-shaped model under a
// Zipf-distributed user stream (hot repeat users, cold fold-in users).
//
//   bench_serve_throughput [--users N] [--items N] [--k K] [--requests N]
//     [--clients N] [--batch N] [--cache N]
//     [--foldin-pct P] [--zipf A] [--topn N] [--seed S] [--smoke]
//     [--index exhaustive|ivf] [--nprobe N] [--clusters N] [--json-out F]
//     [--overload] [--overload-factor F] [--max-queue N] [--deadline-us U]
//
// Each mode replays the same request schedule with `clients` closed-loop
// threads (a client issues its next request as soon as the previous answer
// lands). The first 10% of the stream warms the cache and is not measured.
//
// --index=ivf adds a third row: the same batched service scoring through an
// IVF index attached to the snapshot, alongside its recall@topn against the
// exhaustive oracle on the same pinned schedule — QPS and recall side by
// side, so the nprobe trade-off is visible in one run. --json-out writes the
// per-mode table plus the recall/speedup summary machine-readably.
//
// --overload adds an open-loop phase: clients submit at `overload-factor`
// times the capacity just measured by the closed-loop batched run, against a
// bounded queue with per-request deadlines. It reports the shed rate and the
// p50/p99 latency of the *accepted* requests — the point of overload
// protection is that accepted latency stays bounded while excess load is
// shed at the door instead of growing the queue without limit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "index/ivf_index.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/fold_in.hpp"
#include "recsys/ranking.hpp"
#include "serve/service.hpp"

namespace {

using namespace alsmf;
using serve::ModelSnapshot;
using serve::RecommendService;

struct Config {
  index_t users = 6040;   // MovieLens-1M shape
  index_t items = 3706;
  int k = 16;
  std::size_t requests = 60000;
  int clients = 8;
  std::size_t max_batch = 64;
  std::size_t cache = 4096;
  int foldin_pct = 5;
  double zipf = 1.05;
  int topn = 10;
  std::uint64_t seed = 42;
  real lambda = 0.1f;
  std::string index_mode = "exhaustive";  // or "ivf"
  int nprobe = 16;       // partitions probed per query in ivf mode
  int ivf_clusters = 0;  // 0 = ~2·sqrt(items) heuristic
};

struct Request {
  bool foldin = false;
  index_t user = 0;                 // top-N request
  std::vector<index_t> fold_items;  // fold-in request
  std::vector<real> fold_ratings;
};

std::vector<Request> make_schedule(const Config& config) {
  Rng rng(config.seed);
  const ZipfSampler user_zipf(static_cast<std::uint64_t>(config.users),
                              config.zipf);
  std::vector<Request> schedule(config.requests);
  for (auto& request : schedule) {
    if (static_cast<int>(rng.bounded(100)) < config.foldin_pct) {
      request.foldin = true;
      // A cold user with ~10 distinct rated items.
      const std::size_t count = 5 + rng.bounded(10);
      std::vector<index_t> items;
      while (items.size() < count) {
        const auto item =
            static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(config.items)));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      request.fold_items = std::move(items);
      for (std::size_t i = 0; i < count; ++i) {
        request.fold_ratings.push_back(
            static_cast<real>(1 + rng.bounded(5)));
      }
    } else {
      request.user = static_cast<index_t>(user_zipf(rng));
    }
  }
  return schedule;
}

/// Mixture-of-topics factors with popularity-skewed item norms — the regime
/// trained ALS factors occupy: items cluster around shared topic/genre
/// directions and popular items carry larger norms. Iid-uniform rows (the
/// old generator) have no coarse structure at all, which is the provably
/// worst case for any partition-based index and does not resemble a trained
/// model; topic structure is what makes the recall/QPS trade-off here
/// representative.
std::shared_ptr<ModelSnapshot> make_model(const Config& config) {
  Rng rng(config.seed ^ 0xfac70ULL);
  constexpr int kTopics = 32;
  constexpr double kNoise = 0.25;
  constexpr double kSkew = 0.25;  // item i norm ~ (i+1)^-kSkew, ids by popularity
  Matrix centers(kTopics, config.k);
  centers.fill_uniform(rng, -0.5f, 0.5f);
  auto gauss = [&rng] {
    double u1 = rng.uniform();
    const double u2 = rng.uniform();
    if (u1 < 1e-12) u1 = 1e-12;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  };
  Matrix x(config.users, config.k), y(config.items, config.k);
  for (index_t i = 0; i < config.items; ++i) {
    const auto t = static_cast<index_t>(
        rng.bounded(static_cast<std::uint64_t>(kTopics)));
    const real scale = static_cast<real>(
        2.0 * std::pow(static_cast<double>(i + 1), -kSkew));
    const real* c = centers.row(t).data();
    real* row = y.row(i).data();
    for (int d = 0; d < config.k; ++d) {
      row[d] = scale * (c[d] + static_cast<real>(kNoise * gauss()));
    }
  }
  for (index_t u = 0; u < config.users; ++u) {
    const auto t = static_cast<index_t>(
        rng.bounded(static_cast<std::uint64_t>(kTopics)));
    const real* c = centers.row(t).data();
    real* row = x.row(u).data();
    for (int d = 0; d < config.k; ++d) {
      row[d] = c[d] + static_cast<real>(kNoise * gauss());
    }
  }
  return serve::snapshot_from_factors(std::move(x), std::move(y), config.lambda);
}

struct RunResult {
  double seconds = 0;
  std::size_t measured = 0;
  Histogram latency_us{0.5, 1.25, 64};
  double cache_hit_rate = 0;
  double mean_batch = 0;
};

/// Replays `schedule` with closed-loop clients; `issue` executes one request
/// and blocks until its answer is ready.
template <class Issue>
RunResult run_clients(const Config& config, const std::vector<Request>& schedule,
                      std::size_t warmup, Issue issue) {
  RunResult result;
  // Warmup phase: fill caches, spin up threads; not measured.
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> clients;
    for (int c = 0; c < config.clients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < warmup;
             i = next.fetch_add(1)) {
          issue(schedule[i]);
        }
      });
    }
  }
  // Measured phase.
  std::vector<Histogram> per_client(
      static_cast<std::size_t>(config.clients), Histogram(0.5, 1.25, 64));
  std::atomic<std::size_t> next{warmup};
  const Timer wall;
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        Histogram& h = per_client[static_cast<std::size_t>(c)];
        for (std::size_t i = next.fetch_add(1); i < schedule.size();
             i = next.fetch_add(1)) {
          const Timer t;
          issue(schedule[i]);
          h.add(t.seconds() * 1e6);
        }
      });
    }
  }
  result.seconds = wall.seconds();
  for (const auto& h : per_client) result.latency_us.merge(h);
  result.measured = result.latency_us.count();
  return result;
}

RunResult run_naive(const Config& config, const std::vector<Request>& schedule,
                    std::size_t warmup,
                    const std::shared_ptr<ModelSnapshot>& model) {
  return run_clients(config, schedule, warmup, [&](const Request& request) {
    if (request.foldin) {
      const auto factor = fold_in_user(model->y, request.fold_items,
                                       request.fold_ratings, model->lambda);
      std::vector<index_t> exclude = request.fold_items;
      std::sort(exclude.begin(), exclude.end());
      const auto top = topn_from_factor(factor, model->y, config.topn, nullptr,
                                        -1, exclude);
      if (top.empty()) std::abort();
    } else {
      const auto top =
          topn_from_factor(model->x.row(request.user), model->y, config.topn);
      if (top.empty()) std::abort();
    }
  });
}

RunResult run_batched(const Config& config,
                      const std::vector<Request>& schedule, std::size_t warmup,
                      const std::shared_ptr<ModelSnapshot>& model,
                      std::shared_ptr<const index::IvfIndex> ann = nullptr) {
  serve::ServiceOptions options;
  options.max_batch = config.max_batch;
  options.cache_capacity = config.cache;
  options.nprobe = config.nprobe;
  auto snap = std::make_shared<ModelSnapshot>(*model);
  snap->ann = std::move(ann);
  RecommendService service(std::move(snap), options);
  auto result = run_clients(config, schedule, warmup, [&](const Request& request) {
    if (request.foldin) {
      const auto r =
          service.fold_in(request.fold_items, request.fold_ratings, config.topn);
      if (r.topn.empty()) std::abort();
    } else {
      const auto r = service.topn(request.user, config.topn);
      if (r.topn.empty()) std::abort();
    }
  });
  result.cache_hit_rate = service.cache_stats().hit_rate();
  result.mean_batch = service.metrics().mean_batch_size();
  std::printf("# serve stats: %s\n", service.stats_json().c_str());
  return result;
}

/// Open-loop overload phase: submit at `factor` x the measured capacity
/// against a bounded queue with deadlines; all futures are still collected,
/// so no request is ever lost — just answered with a shed status.
void run_overload(const Config& config, const std::vector<Request>& schedule,
                  const std::shared_ptr<ModelSnapshot>& model,
                  double capacity_qps, double factor, std::size_t max_queue,
                  long deadline_us) {
  serve::ServiceOptions options;
  options.max_batch = config.max_batch;
  // No result cache: the overload phase measures the queue path itself —
  // with the cache on, hot Zipf users bypass the queue and mask shedding.
  options.cache_capacity = 0;
  options.max_queue = max_queue;
  options.default_deadline_us = deadline_us;
  RecommendService service(std::make_shared<ModelSnapshot>(*model), options);

  const double offered_qps = capacity_qps * factor;
  const auto interval = std::chrono::nanoseconds(static_cast<long long>(
      1e9 * static_cast<double>(config.clients) / offered_qps));
  std::printf(
      "# overload: offering %.0f qps (%.2fx measured capacity %.0f), "
      "max_queue=%zu deadline=%ldus\n",
      offered_qps, factor, capacity_qps, max_queue, deadline_us);

  std::atomic<std::uint64_t> accepted{0}, not_ok{0};
  const Timer wall;
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<serve::ServeResult>> futures;
        const auto start = std::chrono::steady_clock::now();
        std::size_t n = 0;
        for (std::size_t i = static_cast<std::size_t>(c); i < schedule.size();
             i += static_cast<std::size_t>(config.clients), ++n) {
          std::this_thread::sleep_until(start + n * interval);
          const Request& request = schedule[i];
          futures.push_back(
              request.foldin
                  ? service.submit_fold_in(request.fold_items,
                                           request.fold_ratings, config.topn)
                  : service.submit_topn(request.user, config.topn));
        }
        for (auto& f : futures) {
          if (f.get().ok()) {
            ++accepted;
          } else {
            ++not_ok;
          }
        }
      });
    }
  }
  const double seconds = wall.seconds();

  const auto& m = service.metrics();
  const auto shed = m.shed_queue_full() + m.shed_deadline();
  const double shed_rate =
      m.submitted() > 0
          ? static_cast<double>(shed) / static_cast<double>(m.submitted())
          : 0.0;
  // Accounting check: every submitted request was either completed or shed.
  if (m.submitted() != m.completed() + shed) std::abort();
  if (accepted + not_ok != schedule.size()) std::abort();

  std::printf("%-9s %9s %9s %10s %9s %9s %8s %8s\n", "overload", "submitted",
              "accepted", "shed_full", "shed_dl", "shed_rate", "p50_us",
              "p99_us");
  std::printf("%-9s %9llu %9llu %10llu %9llu %8.1f%% %8.1f %8.1f\n", "",
              static_cast<unsigned long long>(m.submitted()),
              static_cast<unsigned long long>(m.completed()),
              static_cast<unsigned long long>(m.shed_queue_full()),
              static_cast<unsigned long long>(m.shed_deadline()),
              100.0 * shed_rate, m.total_us_percentile(0.50),
              m.total_us_percentile(0.99));
  std::printf(
      "# overload summary: %.0f qps offered for %.3fs, %.1f%% shed, accepted "
      "p99 %.1fus\n",
      offered_qps, seconds, 100.0 * shed_rate, m.total_us_percentile(0.99));
}

/// Mean recall@topn of the index against the exhaustive oracle, over the
/// first distinct top-N users of the pinned schedule (the same users the
/// throughput phases serve).
double measure_recall(const Config& config, const std::vector<Request>& schedule,
                      const ModelSnapshot& model, const index::IvfIndex& ann) {
  std::vector<index_t> users;
  for (const auto& request : schedule) {
    if (request.foldin) continue;
    if (std::find(users.begin(), users.end(), request.user) == users.end()) {
      users.push_back(request.user);
    }
    if (users.size() >= 200) break;
  }
  const BiasModel* bias = model.has_bias ? &model.bias : nullptr;
  double recall = 0;
  for (const index_t u : users) {
    const auto exact = topn_from_factor(model.x.row(u), model.y, config.topn,
                                        bias, u);
    const auto approx = ann.topn(model.x.row(u), model.y, config.topn,
                                 config.nprobe, bias, u);
    recall += recall_at_n(approx, exact);
  }
  return users.empty() ? 1.0 : recall / static_cast<double>(users.size());
}

double qps_of(const RunResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.measured) / r.seconds : 0.0;
}

void json_mode(json::JsonWriter& w, const char* mode, const RunResult& r,
               double recall) {
  w.begin_object();
  w.field("mode", mode);
  w.field("requests", static_cast<unsigned long long>(r.measured));
  w.field("qps", qps_of(r));
  w.field("p50_us", r.latency_us.percentile(0.50));
  w.field("p95_us", r.latency_us.percentile(0.95));
  w.field("p99_us", r.latency_us.percentile(0.99));
  w.field("cache_hit_rate", r.cache_hit_rate);
  w.field("mean_batch", r.mean_batch);
  // Exhaustive modes are their own oracle: recall 1 by construction.
  w.field("recall_at_n", recall);
  w.end_object();
}

void print_row(const char* mode, const RunResult& r) {
  std::printf("%-8s %9zu %8.3f %9.0f %8.1f %8.1f %8.1f %9.3f %10.1f\n", mode,
              r.measured, r.seconds,
              static_cast<double>(r.measured) / r.seconds,
              r.latency_us.percentile(0.50), r.latency_us.percentile(0.95),
              r.latency_us.percentile(0.99), r.cache_hit_rate, r.mean_batch);
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_args = alsmf::bench::parse_bench_args(
      argc, argv,
      {"users", "items", "k", "requests", "clients", "batch", "cache",
       "foldin-pct", "zipf", "topn", "index", "nprobe", "clusters",
       "overload", "overload-factor", "max-queue", "deadline-us"});
  const CliArgs& args = bench_args.cli;
  Config config;
  if (bench_args.smoke) {
    config.users = 800;
    config.items = 400;
    config.k = 8;
    config.requests = 4000;
    config.clients = 2;
  }
  config.users = args.get_long("users", config.users);
  config.items = args.get_long("items", config.items);
  config.k = static_cast<int>(args.get_long("k", config.k));
  config.requests =
      static_cast<std::size_t>(args.get_long("requests", static_cast<long>(config.requests)));
  config.clients = static_cast<int>(args.get_long("clients", config.clients));
  config.max_batch =
      static_cast<std::size_t>(args.get_long("batch", static_cast<long>(config.max_batch)));
  config.cache =
      static_cast<std::size_t>(args.get_long("cache", static_cast<long>(config.cache)));
  config.foldin_pct = static_cast<int>(args.get_long("foldin-pct", config.foldin_pct));
  config.zipf = args.get_double("zipf", config.zipf);
  config.topn = static_cast<int>(args.get_long("topn", config.topn));
  config.seed = bench_args.seed;
  config.index_mode = args.get_or("index", config.index_mode);
  config.nprobe = static_cast<int>(args.get_long("nprobe", config.nprobe));
  config.ivf_clusters =
      static_cast<int>(args.get_long("clusters", config.ivf_clusters));
  if (config.index_mode != "exhaustive" && config.index_mode != "ivf") {
    std::fprintf(stderr, "unknown --index mode '%s' (exhaustive|ivf)\n",
                 config.index_mode.c_str());
    return 2;
  }

  std::printf(
      "# serving throughput: %lld users x %lld items, k=%d, %zu requests "
      "(%d%% fold-in, zipf %.2f), %d closed-loop clients\n",
      static_cast<long long>(config.users), static_cast<long long>(config.items),
      config.k, config.requests, config.foldin_pct, config.zipf,
      config.clients);
  std::printf("# batched: max_batch=%zu cache=%zu\n", config.max_batch,
              config.cache);

  const auto schedule = make_schedule(config);
  const auto model = make_model(config);
  const std::size_t warmup = config.requests / 10;

  std::printf("%-8s %9s %8s %9s %8s %8s %8s %9s %10s\n", "mode", "requests",
              "seconds", "qps", "p50_us", "p95_us", "p99_us", "cache_hit",
              "mean_batch");
  const auto naive = run_naive(config, schedule, warmup, model);
  print_row("naive", naive);
  const auto batched = run_batched(config, schedule, warmup, model);
  print_row("batched", batched);

  const double naive_qps = qps_of(naive);
  const double batched_qps = qps_of(batched);
  std::printf("# speedup: %.2fx (batched vs naive QPS)\n",
              batched_qps / naive_qps);

  RunResult ivf;
  double ivf_recall = 0;
  std::shared_ptr<const index::IvfIndex> ann;
  if (config.index_mode == "ivf") {
    index::IvfOptions ivf_options;
    ivf_options.clusters = config.ivf_clusters;
    ivf_options.seed = config.seed;
    if (config.nprobe > 0) ivf_options.nprobe = config.nprobe;
    ann = index::IvfIndex::build(model->y, ivf_options,
                                 model->has_bias ? &model->bias : nullptr);
    const auto& bs = ann->build_stats();
    std::printf("# ivf: clusters=%d nprobe=%d build=%.3fs imbalance=%.2f\n",
                bs.clusters, config.nprobe, bs.build_seconds, bs.imbalance);
    ivf_recall = measure_recall(config, schedule, *model, *ann);
    ivf = run_batched(config, schedule, warmup, model, ann);
    print_row("ivf", ivf);
    std::printf(
        "# ivf: recall@%d %.4f vs exhaustive oracle, speedup %.2fx vs batched "
        "exhaustive (%.2fx vs naive)\n",
        config.topn, ivf_recall, qps_of(ivf) / batched_qps,
        qps_of(ivf) / naive_qps);
  }

  if (!bench_args.json_out.empty()) {
    json::JsonWriter w;
    w.begin_object();
    w.field("bench", "serve_throughput");
    w.field("seed", static_cast<unsigned long long>(config.seed));
    w.field("users", static_cast<long long>(config.users));
    w.field("items", static_cast<long long>(config.items));
    w.field("k", config.k);
    w.field("topn", config.topn);
    w.field("zipf", config.zipf);
    w.field("cache", static_cast<unsigned long long>(config.cache));
    w.field("index", config.index_mode);
    w.key("modes").begin_array();
    json_mode(w, "naive", naive, 1.0);
    json_mode(w, "batched", batched, 1.0);
    if (ann) json_mode(w, "ivf", ivf, ivf_recall);
    w.end_array();
    w.field("speedup_batched_vs_naive", batched_qps / naive_qps);
    if (ann) {
      w.field("speedup_ivf_vs_batched", qps_of(ivf) / batched_qps);
      w.key("ivf").begin_object();
      w.field("clusters", ann->build_stats().clusters);
      w.field("nprobe", config.nprobe);
      w.field("build_seconds", ann->build_stats().build_seconds);
      w.field("imbalance", ann->build_stats().imbalance);
      w.field("recall_at_n", ivf_recall);
      w.end_object();
    }
    w.end_object();
    std::ofstream(bench_args.json_out) << w.str() << "\n";
    std::printf("# wrote %s\n", bench_args.json_out.c_str());
  }

  if (args.has_flag("overload")) {
    const double factor = args.get_double("overload-factor", 2.0);
    const auto max_queue =
        static_cast<std::size_t>(args.get_long("max-queue", 256));
    const long deadline_us = args.get_long("deadline-us", 2000);
    run_overload(config, schedule, model, batched_qps, factor, max_queue,
                 deadline_us);
  }
  return 0;
}
