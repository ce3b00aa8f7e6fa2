#include "obs/regress.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace alsmf::obs {
namespace {

RegressReport baseline_report() {
  RegressReport r;
  r.seed = 7;
  r.smoke = true;
  r.add("modeled_seconds", 1.0, "s");
  r.add("rmse", 0.8, "rmse");
  r.add("recall", 0.6, "recall", /*lower_is_better=*/false);
  r.add("completed", 500.0, "count", /*lower_is_better=*/false);
  return r;
}

TEST(Regress, UnchangedReportPasses) {
  const RegressReport base = baseline_report();
  const CompareResult result = compare_reports(base, base, 0.1);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.deltas.size(), 4u);
  EXPECT_TRUE(result.missing.empty());
  for (const auto& d : result.deltas) {
    EXPECT_FALSE(d.regressed);
    EXPECT_DOUBLE_EQ(d.ratio, 1.0);
  }
  EXPECT_NE(result.summary().find("PASS"), std::string::npos);
}

TEST(Regress, GatedMetricPastToleranceFails) {
  const RegressReport base = baseline_report();
  RegressReport cur = baseline_report();
  cur.metrics[0].value = 1.2;  // modeled_seconds +20%, lower is better
  EXPECT_TRUE(compare_reports(base, cur, 0.25).ok);
  const CompareResult fail = compare_reports(base, cur, 0.1);
  EXPECT_FALSE(fail.ok);
  ASSERT_FALSE(fail.deltas.empty());
  EXPECT_TRUE(fail.deltas[0].regressed);
  EXPECT_NE(fail.summary().find("REGRESSED"), std::string::npos);
  EXPECT_NE(fail.summary().find("FAIL"), std::string::npos);
}

TEST(Regress, ImprovementsNeverFail) {
  const RegressReport base = baseline_report();
  RegressReport cur = baseline_report();
  cur.metrics[0].value = 0.1;   // 10x faster
  cur.metrics[1].value = 0.01;  // much better rmse
  cur.metrics[3].value = 5000;  // higher-is-better metric up
  EXPECT_TRUE(compare_reports(base, cur, 0.05).ok);
}

TEST(Regress, HigherIsBetterDirection) {
  const RegressReport base = baseline_report();
  RegressReport cur = baseline_report();
  cur.metrics[3].value = 400.0;  // completed dropped 20%
  EXPECT_FALSE(compare_reports(base, cur, 0.1).ok);
  EXPECT_TRUE(compare_reports(base, cur, 0.25).ok);
}

TEST(Regress, MissingBaselineMetricFails) {
  const RegressReport base = baseline_report();
  RegressReport cur = baseline_report();
  cur.metrics.erase(cur.metrics.begin());  // drop modeled_seconds
  const CompareResult result = compare_reports(base, cur, 0.1);
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "modeled_seconds");
  EXPECT_NE(result.summary().find("MISSING"), std::string::npos);
}

TEST(Regress, ZeroBaselineComparesAbsolutely) {
  RegressReport base;
  base.add("violations", 0.0, "count");
  RegressReport cur;
  cur.add("violations", 1.0, "count");
  EXPECT_FALSE(compare_reports(base, cur, 0.5).ok);
  cur.metrics[0].value = 0.0;
  EXPECT_TRUE(compare_reports(base, cur, 0.5).ok);
}

TEST(Regress, JsonRoundTripPreservesEverything) {
  const RegressReport base = baseline_report();
  const RegressReport parsed = RegressReport::from_json(base.to_json());
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.suite, base.suite);
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_TRUE(parsed.smoke);
  ASSERT_EQ(parsed.metrics.size(), base.metrics.size());
  for (std::size_t i = 0; i < parsed.metrics.size(); ++i) {
    EXPECT_EQ(parsed.metrics[i].name, base.metrics[i].name);
    EXPECT_DOUBLE_EQ(parsed.metrics[i].value, base.metrics[i].value);
    EXPECT_EQ(parsed.metrics[i].unit, base.metrics[i].unit);
    EXPECT_EQ(parsed.metrics[i].lower_is_better,
              base.metrics[i].lower_is_better);
  }
}

TEST(Regress, FileRoundTripAndErrors) {
  const std::string path = ::testing::TempDir() + "/alsmf_regress.json";
  baseline_report().write_file(path);
  const RegressReport loaded = RegressReport::load_file(path);
  EXPECT_EQ(loaded.metrics.size(), 4u);
  EXPECT_NE(loaded.find("modeled_seconds"), nullptr);
  EXPECT_EQ(loaded.find("nope"), nullptr);
  EXPECT_THROW(RegressReport::load_file("/nonexistent/alsmf.json"), Error);
  EXPECT_THROW(RegressReport::from_json("[]"), Error);
  EXPECT_THROW(RegressReport::from_json(
                   "{\"schema_version\":99,\"suite\":\"s\",\"seed\":1,"
                   "\"smoke\":false,\"metrics\":[]}"),
               Error);
  EXPECT_THROW(compare_reports(baseline_report(), baseline_report(), -1.0),
               Error);
}

}  // namespace
}  // namespace alsmf::obs
