#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace alsmf::obs {
namespace {

IterationEvent sample_event() {
  IterationEvent e;
  e.iteration = 3;
  e.variant = "fused+tiled";
  e.device = "gpu";
  e.row_solver = "subspace";
  e.loss = 12.5;
  e.rmse = 0.75;
  e.modeled_seconds = 0.5;
  e.wall_seconds = 0.25;
  e.s1_modeled_s = 0.1;
  e.s2_modeled_s = 0.2;
  e.s3_modeled_s = 0.3;
  e.s1_wall_s = 0.01;
  e.s2_wall_s = 0.02;
  e.s3_wall_s = 0.03;
  e.guard_nonfinite_rows = 1;
  e.guard_redamped_rows = 2;
  e.guard_zeroed_rows = 3;
  e.solver_fallbacks = 4;
  e.kernel_relaunches = 5;
  return e;
}

// The event-stream schema is a contract with external consumers (plots,
// greps, dashboards): lock the exact serialized form.
TEST(Events, IterationEventJsonGolden) {
  const std::string expected =
      "{\"type\":\"iteration\",\"iteration\":3,\"variant\":\"fused+tiled\","
      "\"device\":\"gpu\",\"row_solver\":\"subspace\","
      "\"loss\":12.5,\"rmse\":0.75,"
      "\"modeled_seconds\":0.5,\"wall_seconds\":0.25,"
      "\"steps\":{\"modeled_s\":{\"s1\":0.1,\"s2\":0.2,\"s3\":0.3},"
      "\"wall_s\":{\"s1\":0.01,\"s2\":0.02,\"s3\":0.03}},"
      "\"guards\":{\"nonfinite_rows\":1,\"redamped_rows\":2,"
      "\"zeroed_rows\":3,\"solver_fallbacks\":4,\"kernel_relaunches\":5}}";
  EXPECT_EQ(sample_event().to_json(), expected);
}

TEST(Events, AccountingOnlyRunsExportNullQuality) {
  IterationEvent e;  // loss/rmse default to NaN
  e.iteration = 1;
  const std::string text = e.to_json();
  EXPECT_NE(text.find("\"loss\":null"), std::string::npos);
  EXPECT_NE(text.find("\"rmse\":null"), std::string::npos);
  const json::Value root = json::parse(text);
  EXPECT_TRUE(root.at("loss").is_null());
  EXPECT_TRUE(root.at("rmse").is_null());
}

TEST(Events, StreamWritesOneObjectPerLine) {
  EventStream stream;
  for (int i = 1; i <= 3; ++i) {
    IterationEvent e = sample_event();
    e.iteration = i;
    stream.emit(e);
  }
  EXPECT_EQ(stream.size(), 3u);

  std::istringstream lines(stream.to_jsonl());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    const json::Value root = json::parse(line);
    EXPECT_EQ(root.at("type").as_string(), "iteration");
    EXPECT_DOUBLE_EQ(root.at("iteration").as_double(), count);
    EXPECT_EQ(root.at("steps").at("modeled_s").members().size(), 3u);
    EXPECT_EQ(root.at("guards").members().size(), 5u);
  }
  EXPECT_EQ(count, 3);
}

TEST(Events, WriteFileRoundTrips) {
  EventStream stream;
  stream.emit(sample_event());
  const std::string path = ::testing::TempDir() + "/alsmf_events.jsonl";
  stream.write_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, sample_event().to_json());
  stream.clear();
  EXPECT_EQ(stream.size(), 0u);
}

}  // namespace
}  // namespace alsmf::obs
