#include "load.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.hpp"

namespace perfbench {

using alsmf::index_t;
using alsmf::real;
using alsmf::serve::ServeResult;

std::vector<Request> make_schedule(std::size_t count, index_t users,
                                   index_t items, double fold_in_share,
                                   std::uint64_t seed) {
  alsmf::Rng rng(seed);
  // Popularity rank -> user id, so hot users are spread over the id range.
  std::vector<index_t> by_rank(static_cast<std::size_t>(users));
  std::iota(by_rank.begin(), by_rank.end(), index_t{0});
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  const alsmf::ZipfSampler zipf(static_cast<std::uint64_t>(users), 1.05);

  std::vector<Request> out(count);
  for (auto& r : out) {
    if (rng.uniform() < fold_in_share) {
      r.fold_in = true;
      const std::size_t len = 8 + rng.bounded(5);
      while (r.items.size() < len) {
        const auto item = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(items)));
        if (std::find(r.items.begin(), r.items.end(), item) == r.items.end()) {
          r.items.push_back(item);
          r.ratings.push_back(static_cast<real>(1 + rng.bounded(5)));
        }
      }
    } else {
      r.user = by_rank[static_cast<std::size_t>(zipf(rng))];
    }
  }
  return out;
}

namespace {

struct Pending {
  std::future<ServeResult> future;
  double due = 0;
  std::uint64_t id = 0;
  bool fold_in = false;
  bool traced = false;
};

/// Checks one answer; returns an empty string when it is well formed.
std::string answer_problem(const ServeResult& r, std::uint64_t max_version,
                           index_t items) {
  if (!r.ok()) return std::string("status ") + alsmf::serve::to_string(r.status);
  if (r.model_version < 1 || r.model_version > max_version) {
    return "version " + std::to_string(r.model_version) + " never published";
  }
  if (r.topn.size() != 10) return "top-N has " + std::to_string(r.topn.size()) + " items";
  for (std::size_t i = 0; i < r.topn.size(); ++i) {
    const auto& rec = r.topn[i];
    if (rec.item < 0 || rec.item >= items) return "item out of range";
    if (i > 0 && rec.score > r.topn[i - 1].score) return "scores not descending";
    for (std::size_t j = 0; j < i; ++j) {
      if (r.topn[j].item == rec.item) return "duplicate item";
    }
  }
  return "";
}

/// Drives one service through phases and swaps its snapshots.
class LoadRunner {
 public:
  LoadRunner(alsmf::serve::RecommendService& service,
             const std::vector<std::shared_ptr<alsmf::serve::ModelSnapshot>>& snapshots,
             std::size_t swap_every, Run& run)
      : service_(service),
        snapshots_(snapshots),
        swap_every_(swap_every),
        items_(snapshots.front()->items()),
        run_(run),
        max_version_(service.model_version()) {}

  /// Sends schedule[cursor..] (cyclically) `count` requests at `rate`,
  /// waits for every answer, and advances `cursor`.
  PhaseStats run_phase(const std::vector<Request>& schedule, std::size_t& cursor,
                       double rate, std::size_t count);

  std::uint64_t swaps_done() const { return swaps_done_; }

 private:
  alsmf::serve::RecommendService& service_;
  const std::vector<std::shared_ptr<alsmf::serve::ModelSnapshot>>& snapshots_;
  std::size_t swap_every_;
  index_t items_;
  Run& run_;
  std::uint64_t sent_total_ = 0;
  std::uint64_t swaps_done_ = 0;
  std::uint64_t max_version_ = 0;
};

PhaseStats LoadRunner::run_phase(const std::vector<Request>& schedule,
                                 std::size_t& cursor, double rate,
                                 std::size_t count) {
  PhaseStats stats;
  stats.rate = rate;
  const bool tracing = Tracer::instance().enabled();
  const double cpu0 = process_cpu_s();

  std::mutex m;  // guards queue, done, problems and the latency vectors
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  std::vector<std::string> problems;
  std::atomic<std::uint64_t> max_version{max_version_};

  auto record = [&](const Pending& p, const ServeResult* r,
                    const std::string& problem, double completed) {
    std::scoped_lock lk(m);
    stats.last_done = std::max(stats.last_done, completed);
    if (!problem.empty()) {
      ++stats.failed;
      if (problems.size() < 5) problems.push_back(problem);
      return;
    }
    ++stats.ok;
    const double us = (completed - p.due) * 1e6;
    stats.latency_us.push_back(us);
    if (p.fold_in) {
      stats.fold_in_us.push_back(us);
    } else if (r->cache_hit) {
      stats.hit_us.push_back(us);
    } else {
      stats.miss_us.push_back(us);
    }
    if (tracing) (p.traced ? stats.traced_us : stats.untraced_us).push_back(us);
  };
  auto finish = [&](Pending& p) {
    ServeResult r;
    std::string problem;
    try {
      PB_SPAN("serve.wait", p.id, p.traced);
      r = p.future.get();
      problem = answer_problem(r, max_version.load(), items_);
    } catch (const std::exception& e) {
      problem = std::string("exception: ") + e.what();
    }
    record(p, &r, problem, now_s());
  };

  std::thread collector([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      finish(p);
    }
  });

  const double start = now_s() + 1e-3;
  stats.first_due = start;
  std::thread sender([&] {
    // Sleep-paced sends wake up to the timer slack late; 1 µs keeps that
    // well under the latencies being measured (lateness is reported).
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    for (std::size_t i = 0; i < count; ++i) {
      // i / inf = 0: a burst is due all at once.
      const double due = start + static_cast<double>(i) / rate;
      double now = now_s();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        now = now_s();
      }
      const Request& req = schedule[(cursor + i) % schedule.size()];
      Pending p;
      p.due = due;
      p.id = sent_total_ + 1;
      p.fold_in = req.fold_in;
      p.traced = tracing && i % 2 == 0;
      stats.late_us.push_back((now - due) * 1e6);
      stats.last_sent = now;
      try {
        PB_SPAN("serve.submit", p.id, p.traced);
        p.future = req.fold_in ? service_.submit_fold_in(req.items, req.ratings, 10)
                               : service_.submit_topn(req.user, 10);
      } catch (const std::exception& e) {
        record(p, nullptr, std::string("submit threw: ") + e.what(), now_s());
        continue;
      }
      ++sent_total_;
      if (p.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(p);
      } else {
        {
          std::scoped_lock lk(m);
          queue.push_back(std::move(p));
        }
        cv.notify_one();
      }
      if (swap_every_ && sent_total_ % swap_every_ == 0) {
        ++swaps_done_;
        auto next = std::make_shared<alsmf::serve::ModelSnapshot>(
            *snapshots_[swaps_done_ % snapshots_.size()]);
        PB_SPAN("serve.swap");
        // Admit the new version before it can appear in an answer.
        max_version.store(max_version.load() + 1);
        max_version.store(service_.swap_model(std::move(next)));
      }
    }
    {
      std::scoped_lock lk(m);
      done = true;
    }
    cv.notify_one();
  });
  sender.join();
  collector.join();
  stats.cpu_s = process_cpu_s() - cpu0;

  stats.sent = count;
  cursor += count;
  max_version_ = max_version.load();
  for (const auto& pr : problems) run_.check(false, "serve answer: " + pr);
  run_.attempted += count;
  run_.failed += stats.failed;
  return stats;
}

/// serve.*, cache.* and load.* layers of the paced phases.
void record_serve_layers(Run& run, const alsmf::serve::RecommendService& service,
                         const ServeOutcome& out) {
  // Registry histograms are get-or-create: these return the service's own.
  auto& reg = const_cast<alsmf::obs::Registry&>(service.metrics().registry());
  auto& queue = reg.histogram("serve_queue_us");
  auto& exec = reg.histogram("serve_exec_us");
  run.layer("serve.queue_us.p50", queue.percentile(0.50), "us");
  run.layer("serve.queue_us.p99", queue.percentile(0.99), "us");
  run.layer("serve.exec_us.p50", exec.percentile(0.50), "us");
  run.layer("serve.exec_us.p99", exec.percentile(0.99), "us");
  run.layer("serve.batch_size.mean", service.metrics().mean_batch_size(), "count");
  run.layer("serve.batches", static_cast<double>(service.metrics().batches()), "count");
  run.layer("serve.swaps", static_cast<double>(out.swaps), "count");
  run.layer("cache.hit_ratio", service.cache_stats().hit_rate(), "ratio");

  std::vector<double> hit, miss, fold, late;
  double sent = 0, answered = 0, send_window = 0, answer_window = 0;
  for (const auto& p : out.paced) {
    hit.insert(hit.end(), p.hit_us.begin(), p.hit_us.end());
    miss.insert(miss.end(), p.miss_us.begin(), p.miss_us.end());
    fold.insert(fold.end(), p.fold_in_us.begin(), p.fold_in_us.end());
    late.insert(late.end(), p.late_us.begin(), p.late_us.end());
    sent += static_cast<double>(p.sent);
    answered += static_cast<double>(p.ok);
    send_window += p.last_sent - p.first_due;
    answer_window += p.last_done - p.first_due;
  }
  run.layer("serve.hit_us.p50", percentile(hit, 50), "us");
  run.layer("serve.hit_us.p99", percentile(hit, 99), "us");
  run.layer("serve.miss_us.p50", percentile(miss, 50), "us");
  run.layer("serve.miss_us.p99", percentile(miss, 99), "us");
  run.layer("serve.foldin_us.p50", percentile(fold, 50), "us");
  run.layer("serve.foldin_us.p99", percentile(fold, 99), "us");
  run.layer("load.late_us.p99", percentile(late, 99), "us");
  run.layer("load.offered_qps", sent / send_window, "1/s");
  run.layer("load.completed_qps", answered / answer_window, "1/s");
}

}  // namespace

ServeOutcome serve_traffic(
    Run& run, const std::vector<std::shared_ptr<alsmf::serve::ModelSnapshot>>& snapshots,
    const std::vector<Request>& schedule, const ServePlan& plan) {
  alsmf::obs::Registry registry;
  alsmf::serve::ServiceOptions options;
  options.registry = &registry;
  ServeOutcome out;
  std::uint64_t submitted = 0, completed = 0, shed = 0;
  {
    alsmf::serve::RecommendService service(
        std::make_shared<alsmf::serve::ModelSnapshot>(*snapshots.front()), options);
    LoadRunner runner(service, snapshots, plan.swap_every, run);
    std::size_t cursor = 0;
    for (const auto& [rate, seconds] : plan.paced) {
      out.paced.push_back(runner.run_phase(
          schedule, cursor, rate, static_cast<std::size_t>(rate * seconds)));
    }
    out.swaps = runner.swaps_done();
    // The layers describe the paced traffic: a burst's deep queue would
    // swamp the registry's histograms and the cache hit ratio.
    if (Tracer::instance().enabled()) record_serve_layers(run, service, out);
    const double bursts_end = now_s() + plan.burst_seconds;
    while (plan.burst && (out.bursts.size() < 3 || now_s() < bursts_end)) {
      out.bursts.push_back(runner.run_phase(schedule, cursor, kBackToBack, plan.burst));
    }
    service.stop();
    out.swaps = runner.swaps_done();
    submitted = service.metrics().submitted();
    completed = service.metrics().completed();
    shed = service.metrics().shed_queue_full() + service.metrics().shed_deadline();
  }
  run.check(submitted == completed + shed,
            "submitted " + std::to_string(submitted) + " != completed " +
                std::to_string(completed) + " + shed " + std::to_string(shed));
  for (const auto& a : registry.check_assertions()) {
    run.check(false, "registry assertion: " + a);
  }
  return out;
}

}  // namespace perfbench
