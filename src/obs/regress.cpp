#include "obs/regress.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace alsmf::obs {

RegressMetric& RegressReport::add(const std::string& name, double value,
                                  const std::string& unit,
                                  bool lower_is_better) {
  RegressMetric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.lower_is_better = lower_is_better;
  metrics.push_back(std::move(m));
  return metrics.back();
}

const RegressMetric* RegressReport::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string RegressReport::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("schema_version", schema_version);
  w.field("suite", suite);
  w.field("seed", seed);
  w.field("smoke", smoke);
  w.key("metrics").begin_array();
  for (const auto& m : metrics) {
    w.begin_object();
    w.field("name", m.name);
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.field("lower_is_better", m.lower_is_better);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void RegressReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  out << to_json() << "\n";
}

RegressReport RegressReport::from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  ALSMF_CHECK_MSG(root.is_object(), "regress report: not a JSON object");
  RegressReport report;
  report.schema_version =
      static_cast<int>(root.at("schema_version").as_double(1));
  ALSMF_CHECK_MSG(report.schema_version == 1,
                  "regress report: unsupported schema_version");
  report.suite = root.at("suite").as_string();
  report.seed = static_cast<std::uint64_t>(root.at("seed").as_double());
  report.smoke = root.at("smoke").as_bool();
  for (const auto& m : root.at("metrics").array()) {
    RegressMetric metric;
    metric.name = m.at("name").as_string();
    metric.value = m.at("value").as_double();
    metric.unit = m.at("unit").as_string();
    metric.lower_is_better = m.at("lower_is_better").as_bool(true);
    ALSMF_CHECK_MSG(!metric.name.empty(), "regress report: unnamed metric");
    report.metrics.push_back(std::move(metric));
  }
  return report;
}

RegressReport RegressReport::load_file(const std::string& path) {
  std::ifstream in(path);
  ALSMF_CHECK_MSG(in.good(), "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

CompareResult compare_reports(const RegressReport& baseline,
                              const RegressReport& current, double tolerance) {
  ALSMF_CHECK_MSG(tolerance >= 0.0, "tolerance must be >= 0");
  CompareResult result;
  for (const auto& base : baseline.metrics) {
    const RegressMetric* cur = current.find(base.name);
    if (!cur) {
      result.missing.push_back(base.name);
      result.ok = false;
      continue;
    }
    RegressDelta delta;
    delta.name = base.name;
    delta.baseline = base.value;
    delta.current = cur->value;
    if (base.value != 0.0) {
      delta.ratio = cur->value / base.value;
      const double worse = base.lower_is_better ? delta.ratio - 1.0
                                                : 1.0 - delta.ratio;
      delta.regressed = worse > tolerance;
    } else {
      // Zero baseline: any move beyond the tolerance (absolute) in the bad
      // direction counts; ratio is meaningless.
      delta.ratio = 1.0;
      const double worse =
          base.lower_is_better ? cur->value : -cur->value;
      delta.regressed = worse > tolerance;
    }
    if (delta.regressed) result.ok = false;
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

std::string CompareResult::summary() const {
  std::ostringstream os;
  os << "  " << std::string(44, ' ').replace(0, 6, "metric")
     << "     baseline ->      current   ratio\n";
  for (const auto& d : deltas) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-44s %12.6g -> %12.6g  x%-7.3f %s\n",
                  d.name.c_str(), d.baseline, d.current, d.ratio,
                  d.regressed ? "REGRESSED" : "ok");
    os << line;
  }
  for (const auto& name : missing) {
    os << "  " << name << ": MISSING from current report\n";
  }
  os << (ok ? "PASS" : "FAIL") << ": " << deltas.size() << " compared, "
     << missing.size() << " missing\n";
  return os.str();
}

}  // namespace alsmf::obs
