#include "robust/guards.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace alsmf::robust {
namespace {

constexpr real kNaN = std::numeric_limits<real>::quiet_NaN();
constexpr real kInf = std::numeric_limits<real>::infinity();

Matrix finite_matrix(index_t rows, index_t cols) {
  Matrix m(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) m(r, c) = static_cast<real>(r * 10 + c);
  }
  return m;
}

TEST(Guards, NonfiniteRowsFindsNaNAndInf) {
  Matrix m = finite_matrix(5, 3);
  m(1, 2) = kNaN;
  m(3, 0) = -kInf;
  EXPECT_EQ(nonfinite_rows(m), (std::vector<index_t>{1, 3}));
  EXPECT_TRUE(nonfinite_rows(finite_matrix(4, 2)).empty());
}

TEST(Guards, RepairsBadRowsViaResolver) {
  Matrix m = finite_matrix(4, 3);
  m(0, 1) = kNaN;
  m(2, 0) = kInf;
  RobustnessReport report;
  const auto touched = guard_rows(
      m,
      [](index_t row, real, real* out) {
        for (int c = 0; c < 3; ++c) out[c] = static_cast<real>(row) + 0.5f;
        return true;
      },
      report);
  EXPECT_EQ(touched, 2u);
  EXPECT_EQ(report.guard_sweeps, 1u);
  EXPECT_EQ(report.nonfinite_rows, 2u);
  EXPECT_EQ(report.redamped_rows, 2u);
  EXPECT_EQ(report.zeroed_rows, 0u);
  EXPECT_FLOAT_EQ(m(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(m(2, 0), 2.5f);
  // Healthy rows are untouched.
  EXPECT_FLOAT_EQ(m(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(m(3, 2), 32.0f);
}

TEST(Guards, EscalatesLambdaPerAttempt) {
  Matrix m(1, 2);
  m(0, 0) = kNaN;
  m(0, 1) = 0;
  std::vector<real> scales;
  RobustnessReport report;
  const real heaviest = kGuardLambdaEscalation * kGuardLambdaEscalation;
  ASSERT_EQ(kGuardMaxAttempts, 3);
  guard_rows(
      m,
      [&](index_t, real lambda_scale, real* out) {
        scales.push_back(lambda_scale);
        if (lambda_scale < heaviest) return false;  // only heavy damping works
        out[0] = out[1] = 1.0f;
        return true;
      },
      report);
  // Attempt 0 repeats the original damping; escalation starts at attempt 1.
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_FLOAT_EQ(scales[0], 1.0f);
  EXPECT_FLOAT_EQ(scales[1], kGuardLambdaEscalation);
  EXPECT_FLOAT_EQ(scales[2], heaviest);
  EXPECT_EQ(report.redamped_rows, 1u);
  EXPECT_FLOAT_EQ(m(0, 0), 1.0f);
}

TEST(Guards, ZeroesUnrecoverableRows) {
  Matrix m = finite_matrix(3, 3);
  m(1, 1) = kNaN;
  RobustnessReport report;
  guard_rows(
      m, [](index_t, real, real*) { return false; }, report);
  EXPECT_EQ(report.zeroed_rows, 1u);
  EXPECT_EQ(report.redamped_rows, 0u);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(m(1, c), 0.0f);
  EXPECT_TRUE(nonfinite_rows(m).empty());
}

TEST(Guards, ResolverReturningNonfiniteStillCountsAsFailure) {
  // A resolver whose "solution" is itself NaN must not be accepted.
  Matrix m(2, 2);
  m(0, 0) = kNaN;
  RobustnessReport report;
  guard_rows(
      m,
      [](index_t, real, real* out) {
        out[0] = out[1] = kNaN;
        return true;
      },
      report);
  EXPECT_EQ(report.zeroed_rows, 1u);
  EXPECT_TRUE(nonfinite_rows(m).empty());
}

TEST(Guards, ReportMergeAndJson) {
  RobustnessReport a, b;
  a.nonfinite_rows = 2;
  a.redamped_rows = 1;
  b.nonfinite_rows = 3;
  b.zeroed_rows = 1;
  b.solver_fallbacks = 4;
  a.merge(b);
  EXPECT_EQ(a.nonfinite_rows, 5u);
  EXPECT_EQ(a.redamped_rows, 1u);
  EXPECT_EQ(a.zeroed_rows, 1u);
  EXPECT_EQ(a.solver_fallbacks, 4u);
  const auto json = a.to_json();
  EXPECT_NE(json.find("\"nonfinite_rows\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"zeroed_rows\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace alsmf::robust
