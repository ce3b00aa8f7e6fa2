#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <thread>

#include "als/kernels.hpp"
#include "als/metrics.hpp"
#include "als/row_solve.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "devsim/profile.hpp"
#include "linalg/batched.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/fold_in.hpp"
#include "recsys/ranking.hpp"
#include "sparse/convert.hpp"

namespace perfbench {

using namespace alsmf;

const std::vector<std::pair<const char*, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"pool.dispatch_us.wide", "us"},
      {"pool.dispatch_us.narrow", "us"},
      {"pool.speedup", "ratio"},
      {"pool.workers", "count"},
      {"data.generate_s", "s"},
      {"sparse.convert_s", "s"},
      {"sparse.transpose_s", "s"},
      {"devsim.launches", "count"},
      {"devsim.launch_s", "s"},
      {"devsim.modeled_s.S1", "s"},
      {"devsim.modeled_s.S2", "s"},
      {"devsim.modeled_s.S3", "s"},
      {"devsim.flops", "flop"},
      {"devsim.bytes", "B"},
      {"devsim.flops_per_byte", "flop/B"},
      {"devsim.accounting_s", "s"},
      {"als.construct_s", "s"},
      {"als.update_x_s", "s"},
      {"als.update_y_s", "s"},
      {"als.row_math_s.assemble", "s"},
      {"als.row_math_s.solve", "s"},
      {"als.kernel_overhead", "ratio"},
      {"als.eval_s", "s"},
      {"als.modeled_share.S1S2", "ratio"},
      {"als.measured_share.assemble", "ratio"},
      {"multi.iter_ratio", "ratio"},
      {"multi.comm_modeled_s", "s"},
      {"multi.heartbeats", "count"},
      {"multi.stragglers", "count"},
      {"multi.speculative_reexecs", "count"},
      {"serve.queue_us.p50", "us"},
      {"serve.queue_us.p99", "us"},
      {"serve.exec_us.p50", "us"},
      {"serve.exec_us.p99", "us"},
      {"serve.batch_size.mean", "count"},
      {"serve.batches", "count"},
      {"serve.swaps", "count"},
      {"cache.hit_ratio", "ratio"},
      {"serve.hit_us.p50", "us"},
      {"serve.hit_us.p99", "us"},
      {"serve.miss_us.p50", "us"},
      {"serve.miss_us.p99", "us"},
      {"serve.foldin_us.p50", "us"},
      {"serve.foldin_us.p99", "us"},
      {"load.late_us.p99", "us"},
      {"load.offered_qps", "1/s"},
      {"load.completed_qps", "1/s"},
      {"index.build_s", "s"},
      {"index.probe_us", "us"},
      {"index.candidates", "count"},
      {"index.scanned_frac", "ratio"},
      {"index.recall_at_10", "ratio"},
      {"recsys.topn_us", "us"},
      {"recsys.foldin_us", "us"},
      {"linalg.batched_cholesky_us", "us"},
      {"trace.overhead", "ratio"},
  };
  return names;
}

AlsOptions paper_options(bool functional) {
  AlsOptions o;
  o.functional = functional;
  return o;
}

AlsVariant paper_variant() { return AlsVariant::batch_local_reg(); }

namespace {

/// `count` distinct users drawn uniformly (deterministic in `seed`).
std::vector<index_t> pinned_users(index_t users, std::size_t count,
                                  std::uint64_t seed) {
  std::vector<index_t> all(static_cast<std::size_t>(users));
  std::iota(all.begin(), all.end(), index_t{0});
  Rng rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(all.size(), count));
  return all;
}

}  // namespace

double ivf_recall_at_10(const ModelView& m, const index::IvfIndex& ann) {
  std::vector<double> recalls;
  for (index_t u : pinned_users(m.x->rows(), 500, sub_seed(m.seed, 40))) {
    const auto exact = topn_from_factor(m.x->row(u), *m.y, 10);
    const auto approx = ann.topn(m.x->row(u), *m.y, 10);
    recalls.push_back(recall_at_n(approx, exact));
  }
  return mean(recalls);
}

// --- ALS iterations ----------------------------------------------------------

namespace {

bool all_finite(const Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

std::uint64_t repairs(const robust::RobustnessReport& r) {
  return r.nonfinite_rows + r.redamped_rows + r.zeroed_rows +
         r.solver_fallbacks + r.kernel_relaunches;
}

std::uint64_t elastic_events(const ElasticReport& r) {
  return r.device_failures + r.launch_failures + r.repartitions +
         r.kernel_relaunches + r.transfer_retries + r.link_failovers;
}

void log_iteration(IterationLog& log, double seconds) {
  log.iter_s.push_back(seconds);
  (Tracer::instance().enabled() ? log.traced : log.untraced).push_back(seconds);
}

}  // namespace

std::string single_iteration(AlsSolver& solver, IterationLog& log) {
  const std::uint64_t before = repairs(solver.robustness_report());
  const double t0 = now_s();
  double t1 = t0;
  try {
    {
      PB_SPAN("als.update_x");
      solver.update_x();
    }
    t1 = now_s();
    PB_SPAN("als.update_y");
    solver.update_y();
  } catch (const std::exception& e) {
    return std::string("iteration threw: ") + e.what();
  }
  const double t2 = now_s();
  log.x_s.push_back(t1 - t0);
  log.y_s.push_back(t2 - t1);
  log_iteration(log, t2 - t0);
  if (!all_finite(solver.x()) || !all_finite(solver.y())) return "non-finite factors";
  if (repairs(solver.robustness_report()) != before) return "guard repair or relaunch";
  return "";
}

std::string multi_iteration(MultiDeviceAls& multi, IterationLog& log) {
  const std::uint64_t before = elastic_events(multi.elastic_report());
  const double t0 = now_s();
  try {
    PB_SPAN("als.multi_iteration");
    multi.run_iteration();
  } catch (const std::exception& e) {
    return std::string("iteration threw: ") + e.what();
  }
  log_iteration(log, now_s() - t0);
  if (!all_finite(multi.x()) || !all_finite(multi.y())) return "non-finite factors";
  if (elastic_events(multi.elastic_report()) != before) return "elastic recovery event";
  return "";
}

MultiCounters MultiCounters::of(const MultiDeviceAls& multi) {
  const auto& rep = multi.elastic_report();
  return {multi.communication_seconds(), rep.heartbeats, rep.stragglers_detected,
          rep.speculative_reexecs};
}

// --- Recording functions -----------------------------------------------------

void record_solver_layers(Run& run, const devsim::Device& device,
                          const IterationLog& log) {
  const auto ops = static_cast<double>(log.iter_s.size());
  run.layer("als.update_x_s", median(log.x_s), "s");
  run.layer("als.update_y_s", median(log.y_s), "s");
  std::map<std::string, std::size_t> launches;  // per kernel: max over sections
  double flops = 0, bytes = 0;
  for (const auto& [key, s] : device.stats()) {
    const std::string kernel = key.substr(0, key.find('/'));
    launches[kernel] = std::max(launches[kernel], s.launches);
    flops += s.counters.useful_flops;
    bytes += s.counters.global_bytes;
  }
  double total_launches = 0;
  for (const auto& [k, n] : launches) total_launches += static_cast<double>(n);
  const double s1 = device.modeled_seconds_matching("/S1");
  const double s2 = device.modeled_seconds_matching("/S2");
  const double s3 = device.modeled_seconds_matching("/S3");
  run.layer("devsim.launches", total_launches / ops, "count");
  run.layer("devsim.launch_s", device.wall_seconds() / ops, "s");
  run.layer("devsim.modeled_s.S1", s1 / ops, "s");
  run.layer("devsim.modeled_s.S2", s2 / ops, "s");
  run.layer("devsim.modeled_s.S3", s3 / ops, "s");
  run.layer("devsim.flops", flops / ops, "flop");
  run.layer("devsim.bytes", bytes / ops, "B");
  run.layer("devsim.flops_per_byte", flops / bytes, "flop/B");
  run.layer("als.modeled_share.S1S2", (s1 + s2) / (s1 + s2 + s3), "ratio");
}

void record_multi_layers(Run& run, const MultiDeviceAls& multi,
                         const IterationLog& log, const MultiCounters& before,
                         double single_iter_s) {
  const auto n = static_cast<double>(log.iter_s.size());
  const MultiCounters now = MultiCounters::of(multi);
  run.layer("multi.iter_ratio", median(log.iter_s) / single_iter_s, "ratio");
  run.layer("multi.comm_modeled_s", (now.comm_s - before.comm_s) / n, "s");
  run.layer("multi.heartbeats",
            static_cast<double>(now.heartbeats - before.heartbeats) / n, "count");
  run.layer("multi.stragglers", static_cast<double>(now.stragglers - before.stragglers),
            "count");
  run.layer("multi.speculative_reexecs",
            static_cast<double>(now.reexecs - before.reexecs), "count");
}

void record_trace_overhead(Run& run, const std::vector<double>& traced,
                           const std::vector<double>& untraced) {
  run.layer("trace.overhead", median(traced) / median(untraced) - 1.0, "ratio");
}

double evaluate(Run& run, const ModelView& m) {
  const double t0 = now_s();
  double test_rmse = 0;
  {
    PB_SPAN("als.rmse");
    test_rmse = rmse(*m.test, *m.x, *m.y);
  }
  run.layer("als.eval_s", now_s() - t0, "s");
  run.e2e("test_rmse", test_rmse, "rmse");

  double mu = 0;
  for (real v : m.train->values()) mu += v;
  mu /= static_cast<double>(m.train->nnz());
  double se = 0;
  for (real v : m.test->values()) se += (v - mu) * (v - mu);
  const double baseline = std::sqrt(se / static_cast<double>(m.test->nnz()));
  run.check(test_rmse < baseline, "test RMSE " + std::to_string(test_rmse) +
                                      " not below the mean predictor's " +
                                      std::to_string(baseline));
  return test_rmse;
}

double build_index(serve::ModelSnapshot& snapshot) {
  const double t0 = now_s();
  PB_SPAN("index.build");
  serve::attach_ivf_index(snapshot, index::IvfOptions{});
  return now_s() - t0;
}

// --- Probes --------------------------------------------------------------------

void probe_multi(Run& run, const ModelView& m, double single_iter_s) {
  std::unique_ptr<MultiDeviceAls> multi;
  {
    PB_SPAN("als.multi_construct");
    multi = std::make_unique<MultiDeviceAls>(
        *m.train, paper_options(true), paper_variant(),
        std::vector<devsim::DeviceProfile>(4, devsim::k20c()));
  }
  IterationLog log;
  std::string problem = multi_iteration(*multi, log);  // warm-up
  const MultiCounters before = MultiCounters::of(*multi);
  log = IterationLog{};
  for (int it = 0; it < 3 && problem.empty(); ++it) problem = multi_iteration(*multi, log);
  run.check(problem.empty(), "multi-device probe: " + problem);
  if (problem.empty()) record_multi_layers(run, *multi, log, before, single_iter_s);
}

std::vector<Request> probe_serve(Run& run, const ModelView& m,
                                 std::shared_ptr<serve::ModelSnapshot> snap) {
  // Probe traffic is not an operation of the workload: keep it out of the
  // counts, but not out of the checks.
  Run scratch;
  auto schedule = make_schedule(2000, m.x->rows(), m.y->rows(), 0.05,
                                sub_seed(m.seed, 45));
  ServePlan plan;
  plan.paced = {{2000.0, 1.0}};
  plan.swap_every = 1500;
  serve_traffic(scratch, {snap}, schedule, plan);
  run.per_layer.insert(scratch.per_layer.begin(), scratch.per_layer.end());
  for (const auto& f : scratch.check_failures) run.check(false, "serve probe: " + f);
  return schedule;
}

namespace {

/// Median wall microseconds of one empty-body parallel_for over n items.
double dispatch_us(std::size_t n) {
  ThreadPool& pool = ThreadPool::global();
  std::vector<double> t;
  for (int rep = 0; rep < 2000; ++rep) {
    const double t0 = now_s();
    {
      PB_SPAN("common.parallel_for");
      pool.parallel_for(0, n, [](std::size_t, std::size_t, unsigned) {});
    }
    t.push_back((now_s() - t0) * 1e6);
  }
  return median(t);
}

struct RowMath {
  double assemble_s = 0, solve_s = 0;
};

/// Every row of `r` assembled, then solved, through als/row_solve.hpp.
RowMath row_math(ThreadPool& pool, const Csr& r, const Matrix& y) {
  const int k = static_cast<int>(y.cols());
  const auto rows = static_cast<std::size_t>(r.rows());
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  std::vector<real> smat(rows * kk), svec(rows * static_cast<std::size_t>(k));
  RowMath out;
  double t0 = now_s();
  {
    PB_SPAN("als.assemble_normal_equations");
    pool.parallel_for(0, rows, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t u = b; u < e; ++u) {
        const auto row = static_cast<index_t>(u);
        assemble_normal_equations(r.row_cols(row), r.row_values(row), y, 0.1f, k,
                                  smat.data() + u * kk,
                                  svec.data() + u * static_cast<std::size_t>(k));
      }
    });
  }
  out.assemble_s = now_s() - t0;
  t0 = now_s();
  {
    PB_SPAN("als.solve_normal_equations");
    pool.parallel_for(0, rows, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t u = b; u < e; ++u) {
        solve_normal_equations(smat.data() + u * kk,
                               svec.data() + u * static_cast<std::size_t>(k), k,
                               LinearSolverKind::kCholesky);
      }
    });
  }
  out.solve_s = now_s() - t0;
  return out;
}

RowMath median_row_math(ThreadPool& pool, const Csr& r, const Matrix& y) {
  std::vector<double> a, s;
  for (int rep = 0; rep < 3; ++rep) {
    const RowMath m = row_math(pool, r, y);
    a.push_back(m.assemble_s);
    s.push_back(m.solve_s);
  }
  return {median(a), median(s)};
}

void probe_pool_and_row_math(Run& run, const ModelView& m) {
  ThreadPool& pool = ThreadPool::global();
  run.layer("pool.workers", pool.size(), "count");
  run.layer("pool.dispatch_us.wide", dispatch_us(8192), "us");
  run.layer("pool.dispatch_us.narrow", dispatch_us(8), "us");
  const RowMath pooled = median_row_math(pool, *m.train, *m.y);
  ThreadPool single(1);
  const RowMath serial = median_row_math(single, *m.train, *m.y);
  const double pooled_s = pooled.assemble_s + pooled.solve_s;
  run.layer("als.row_math_s.assemble", pooled.assemble_s, "s");
  run.layer("als.row_math_s.solve", pooled.solve_s, "s");
  run.layer("als.measured_share.assemble", pooled.assemble_s / pooled_s, "ratio");
  run.layer("pool.speedup", (serial.assemble_s + serial.solve_s) / pooled_s, "ratio");
  run.layer("als.kernel_overhead", run.per_layer.at("als.update_x_s").value / pooled_s,
            "ratio");
}

void probe_transpose(Run& run, const ModelView& m) {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    PB_SPAN("sparse.transpose");
    const Csr rt = transpose(*m.train);
    t.push_back(now_s() - t0);
  }
  run.layer("sparse.transpose_s", median(t), "s");
}

void probe_accounting(Run& run, const ModelView& m) {
  devsim::Device device(devsim::profile_by_name("gpu"));
  Matrix x = *m.x;
  UpdateArgs args;
  args.r = m.train;
  args.src = m.y;
  args.dst = &x;
  args.k = static_cast<int>(m.y->cols());
  args.variant = paper_variant();
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    {
      PB_SPAN("devsim.launch_update");
      launch_update(device, "update_x", args, 8192, 32, /*functional=*/false);
    }
    t.push_back(now_s() - t0);
  }
  run.layer("devsim.accounting_s", median(t), "s");
}

void probe_index_and_recsys(Run& run, const ModelView& m, const index::IvfIndex& ann,
                            const std::vector<Request>& served) {
  std::vector<double> probe_us, topn_us;
  double candidates = 0;
  for (const auto& r : served) {
    if (r.fold_in) continue;
    index::IvfQueryStats qs;
    double t0 = now_s();
    {
      PB_SPAN("index.topn");
      ann.topn(m.x->row(r.user), *m.y, 10, 0, nullptr, r.user, {}, &qs);
    }
    probe_us.push_back((now_s() - t0) * 1e6);
    candidates += static_cast<double>(qs.candidates);
    t0 = now_s();
    {
      PB_SPAN("recsys.topn_from_factor");
      topn_from_factor(m.x->row(r.user), *m.y, 10);
    }
    topn_us.push_back((now_s() - t0) * 1e6);
    if (probe_us.size() == 1000) break;
  }
  const auto n = static_cast<double>(probe_us.size());
  run.layer("index.probe_us", median(probe_us), "us");
  run.layer("index.candidates", candidates / n, "count");
  run.layer("index.scanned_frac", candidates / n / static_cast<double>(m.y->rows()),
            "ratio");
  run.layer("index.recall_at_10", ivf_recall_at_10(m, ann), "ratio");
  run.layer("recsys.topn_us", median(topn_us), "us");
}

void probe_fold_in(Run& run, const ModelView& m) {
  const auto schedule = make_schedule(4000, m.x->rows(), m.y->rows(), 1.0,
                                      sub_seed(m.seed, 43));
  const int k = static_cast<int>(m.y->cols());
  std::vector<double> fold_us;
  for (const auto& r : schedule) {
    const double t0 = now_s();
    {
      PB_SPAN("recsys.fold_in_user");
      fold_in_user(*m.y, r.items, r.ratings, 0.1f);
    }
    fold_us.push_back((now_s() - t0) * 1e6);
  }
  run.layer("recsys.foldin_us", median(fold_us), "us");

  // Batched Cholesky at the serving batch size the run observed.
  const double observed = run.per_layer.at("serve.batch_size.mean").value;
  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(observed)));
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  std::vector<real> gram0(batch * kk), rhs0(batch * static_cast<std::size_t>(k));
  for (std::size_t b = 0; b < batch; ++b) {
    const auto& r = schedule[b % schedule.size()];
    assemble_normal_equations(r.items, r.ratings, *m.y, 0.1f, k,
                              gram0.data() + b * kk,
                              rhs0.data() + b * static_cast<std::size_t>(k));
  }
  std::vector<double> t;
  for (int rep = 0; rep < 2000; ++rep) {
    std::vector<real> gram = gram0, rhs = rhs0;
    const double t0 = now_s();
    {
      PB_SPAN("linalg.batched_cholesky_solve");
      batched_cholesky_solve(gram.data(), rhs.data(), batch, k, ThreadPool::global());
    }
    t.push_back((now_s() - t0) * 1e6);
  }
  run.layer("linalg.batched_cholesky_us", median(t), "us");
}

}  // namespace

void probe_common(Run& run, const ModelView& m, const index::IvfIndex& ann,
                  const std::vector<Request>& served) {
  probe_pool_and_row_math(run, m);
  probe_transpose(run, m);
  probe_accounting(run, m);
  probe_index_and_recsys(run, m, ann, served);
  probe_fold_in(run, m);

  const double modeled = run.per_layer.at("als.modeled_share.S1S2").value;
  const double measured = run.per_layer.at("als.measured_share.assemble").value;
  std::printf("# S1+S2 share of S1..S3: modeled %.3f, measured (assemble of row math) "
              "%.3f, gap %+.3f; pool of %u workers on %u hardware threads\n",
              modeled, measured, measured - modeled, ThreadPool::global().size(),
              std::thread::hardware_concurrency());
}

}  // namespace perfbench
