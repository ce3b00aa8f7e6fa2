#include "robust/guards.hpp"

#include <cmath>

#include "common/json.hpp"

namespace alsmf::robust {

void RobustnessReport::merge(const RobustnessReport& other) {
  guard_sweeps += other.guard_sweeps;
  nonfinite_rows += other.nonfinite_rows;
  redamped_rows += other.redamped_rows;
  zeroed_rows += other.zeroed_rows;
  solver_fallbacks += other.solver_fallbacks;
  kernel_relaunches += other.kernel_relaunches;
}

std::string RobustnessReport::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("guard_sweeps", guard_sweeps);
  w.field("nonfinite_rows", nonfinite_rows);
  w.field("redamped_rows", redamped_rows);
  w.field("zeroed_rows", zeroed_rows);
  w.field("solver_fallbacks", solver_fallbacks);
  w.field("kernel_relaunches", kernel_relaunches);
  w.end_object();
  return w.str();
}

namespace {

bool row_finite(const real* row, index_t k) {
  for (index_t c = 0; c < k; ++c) {
    if (!std::isfinite(row[c])) return false;
  }
  return true;
}

}  // namespace

std::vector<index_t> nonfinite_rows(const Matrix& factor) {
  std::vector<index_t> bad;
  const index_t k = factor.cols();
  for (index_t r = 0; r < factor.rows(); ++r) {
    if (!row_finite(factor.row(r).data(), k)) bad.push_back(r);
  }
  return bad;
}

std::size_t guard_rows(Matrix& factor, const RowResolver& resolve,
                       RobustnessReport& report) {
  ++report.guard_sweeps;
  const auto bad = nonfinite_rows(factor);
  if (bad.empty()) return 0;
  report.nonfinite_rows += bad.size();

  const index_t k = factor.cols();
  std::vector<real> trial(static_cast<std::size_t>(k));
  for (index_t r : bad) {
    bool recovered = false;
    real scale = real{1};
    for (int attempt = 0; attempt < kGuardMaxAttempts && !recovered;
         ++attempt, scale *= kGuardLambdaEscalation) {
      if (resolve(r, scale, trial.data()) && row_finite(trial.data(), k)) {
        auto row = factor.row(r);
        for (index_t c = 0; c < k; ++c) row[static_cast<std::size_t>(c)] = trial[static_cast<std::size_t>(c)];
        ++report.redamped_rows;
        recovered = true;
      }
    }
    if (!recovered) {
      auto row = factor.row(r);
      for (auto& v : row) v = real{0};
      ++report.zeroed_rows;
    }
  }
  return bad.size();
}

}  // namespace alsmf::robust
