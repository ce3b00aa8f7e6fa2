#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>

#include "common/rng.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

// --- Tracer ----------------------------------------------------------------

struct Tracer::Buffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int> open;  // stack of open span indices
};

namespace {
std::mutex& registration_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (!buffer) {
    std::scoped_lock lk(registration_mutex());
    buffer = new Buffer;  // owned by buffers_; lives to process exit
    buffer->thread = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 12);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

Tracer::Scope::Scope(const char* name, std::uint64_t request, bool active) {
  Tracer& t = instance();
  if (!t.enabled_ || !active) return;
  Buffer& b = t.local();
  Span s;
  s.name = name;
  s.request = request;
  s.thread = b.thread;
  s.parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<int>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(index_);
  b.spans.back().start = now_s();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const double end = now_s();
  Buffer& b = instance().local();
  b.spans[static_cast<std::size_t>(index_)].end = end;
  b.open.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::self_time_by_layer() const {
  std::scoped_lock lk(registration_mutex());
  std::map<std::string, SelfTime> out;
  for (const Buffer* b : buffers_) {
    std::vector<double> child(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      SelfTime& t = out[layer];
      t.seconds += std::max(0.0, (s.end - s.start) - child[i]);
      ++t.calls;
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::scoped_lock lk(registration_mutex());
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Buffer* b : buffers_) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      if (!first) out << ",\n";
      first = false;
      const std::string name = s.name;
      out << "{\"name\":\"" << name << "\",\"cat\":\""
          << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1"
          << ",\"tid\":" << s.thread << ",\"ts\":" << s.start * 1e6
          << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}}";
    }
  }
  out << "]}\n";
}

// --- Run -------------------------------------------------------------------

void Run::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return alsmf::splitmix64(state);
}

}  // namespace perfbench
