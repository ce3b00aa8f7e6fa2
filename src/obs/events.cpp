#include "obs/events.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace alsmf::obs {

std::string IterationEvent::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("type", "iteration");
  w.field("iteration", iteration);
  w.field("variant", variant);
  w.field("device", device);
  w.field("row_solver", row_solver);
  w.field("loss", loss);    // non-finite -> null
  w.field("rmse", rmse);
  w.field("modeled_seconds", modeled_seconds);
  w.field("wall_seconds", wall_seconds);
  w.key("steps").begin_object();
  w.key("modeled_s").begin_object();
  w.field("s1", s1_modeled_s).field("s2", s2_modeled_s).field("s3", s3_modeled_s);
  w.end_object();
  w.key("wall_s").begin_object();
  w.field("s1", s1_wall_s).field("s2", s2_wall_s).field("s3", s3_wall_s);
  w.end_object();
  w.end_object();
  w.key("guards").begin_object();
  w.field("nonfinite_rows", guard_nonfinite_rows);
  w.field("redamped_rows", guard_redamped_rows);
  w.field("zeroed_rows", guard_zeroed_rows);
  w.field("solver_fallbacks", solver_fallbacks);
  w.field("kernel_relaunches", kernel_relaunches);
  w.end_object();
  w.end_object();
  return w.str();
}

void EventStream::emit(IterationEvent event) {
  std::scoped_lock lk(m_);
  events_.push_back(std::move(event));
}

std::vector<IterationEvent> EventStream::events() const {
  std::scoped_lock lk(m_);
  return events_;
}

std::size_t EventStream::size() const {
  std::scoped_lock lk(m_);
  return events_.size();
}

void EventStream::clear() {
  std::scoped_lock lk(m_);
  events_.clear();
}

void EventStream::write_jsonl(std::ostream& out) const {
  std::scoped_lock lk(m_);
  for (const auto& e : events_) out << e.to_json() << "\n";
}

std::string EventStream::to_jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

void EventStream::write_file(const std::string& path) const {
  std::ofstream out(path);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  write_jsonl(out);
}

}  // namespace alsmf::obs
