// Tentpole end-to-end: the continuous train → checkpoint → index-build →
// hot-swap pipeline under closed-loop load. Asserts the registry-backed
// guarantees (zero dropped requests, bounded version staleness) and the
// graceful-fallback path when a checkpoint load hits a seeded injected
// I/O fault mid-pipeline.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "pipeline/pipeline.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"
#include "testing/util.hpp"

namespace alsmf::pipeline {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

PipelineOptions small_options(const std::string& dir) {
  PipelineOptions options;
  options.als.k = 6;
  options.als.iterations = 4;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 2;  // 2 checkpoints -> 2 published versions
  options.ivf.clusters = 4;
  options.clients = 2;
  options.topn = 5;
  options.poll_us = 100;
  return options;
}

TEST(Pipeline, TwoCheckpointsTwoSwapsZeroDropsBoundedStaleness) {
  const Csr train = testing::random_csr(60, 40, 0.2, 7);
  const auto dir = fresh_dir("pipeline_basic");
  obs::Registry reg;
  auto options = small_options(dir);
  options.metrics = &reg;

  const PipelineReport report = run_pipeline(train, options);

  EXPECT_EQ(report.iterations, 4);
  EXPECT_EQ(report.swaps, 2u);          // one hot swap per checkpoint
  EXPECT_EQ(report.index_builds, 2u);   // each swap carried a fresh index
  EXPECT_EQ(report.checkpoint_load_failures, 0u);
  EXPECT_LE(report.staleness_max, 1u);
  // Conservation at drain: submitted == completed + shed, zero drops.
  EXPECT_GT(report.requests_submitted, 0u);
  EXPECT_EQ(report.requests_submitted,
            report.requests_completed + report.requests_shed);
  EXPECT_TRUE(report.ok()) << report.to_json();

  // The shared registry carries the pipeline series and assertions.
  EXPECT_EQ(reg.counter("pipeline_checkpoints_published").value(), 2u);
  EXPECT_TRUE(reg.check_assertions().empty());

  // The last checkpoint is on disk and matches the final iteration.
  const auto ckpts = robust::list_checkpoints(dir);
  ASSERT_FALSE(ckpts.empty());
  EXPECT_EQ(ckpts.back().iteration, 4);
}

TEST(Pipeline, ServesExhaustivelyWhenIndexDisabled) {
  const Csr train = testing::random_csr(40, 30, 0.2, 8);
  const auto dir = fresh_dir("pipeline_noindex");
  auto options = small_options(dir);
  options.use_index = false;
  const PipelineReport report = run_pipeline(train, options);
  EXPECT_EQ(report.swaps, 2u);
  EXPECT_EQ(report.index_builds, 0u);
  EXPECT_TRUE(report.ok()) << report.to_json();
}

TEST(Pipeline, InjectedCheckpointLoadFaultFallsBackGracefully) {
  const Csr train = testing::random_csr(60, 40, 0.2, 9);

  // Measure how many kIoRead occurrences one successful checkpoint load
  // consumes, so the exact-occurrence plan can target the SECOND load —
  // mid-pipeline, after a model version is already being served.
  std::uint64_t reads_per_load = 0;
  {
    const auto probe_dir = fresh_dir("pipeline_fault_probe");
    robust::TrainingCheckpoint probe;
    probe.iteration = 1;
    probe.x = Matrix(60, 6, 0.5f);
    probe.y = Matrix(40, 6, 0.5f);
    const auto path = robust::checkpoint_path(probe_dir, 1);
    robust::save_checkpoint_file(path, probe);
    robust::ScopedFaultInjector counting{robust::FaultPlan{}};
    (void)robust::load_checkpoint_file(path);
    reads_per_load =
        counting.injector().occurrences(robust::FaultSite::kIoRead);
  }
  ASSERT_GT(reads_per_load, 0u);

  const auto dir = fresh_dir("pipeline_fault");
  robust::FaultPlan plan;
  plan.seed = testing::fault_seed();
  // First read of the second checkpoint's first load attempt fails; the
  // retry (occurrences shifted past the plan) succeeds.
  plan.exact[static_cast<int>(robust::FaultSite::kIoRead)] = {reads_per_load};
  robust::ScopedFaultInjector scoped(plan);

  obs::Registry reg;
  auto options = small_options(dir);
  options.metrics = &reg;
  const PipelineReport report = run_pipeline(train, options);

  // The fault was hit, the previous version kept serving (no violations,
  // no drops), and the retry caught the pipeline back up to 2 swaps.
  EXPECT_EQ(report.checkpoint_load_failures, 1u);
  EXPECT_EQ(scoped.injector().triggered(robust::FaultSite::kIoRead), 1u);
  EXPECT_EQ(report.swaps, 2u);
  EXPECT_LE(report.staleness_max, 1u);
  EXPECT_EQ(report.requests_submitted,
            report.requests_completed + report.requests_shed);
  EXPECT_TRUE(report.ok()) << report.to_json();
}

TEST(Pipeline, ResumesFromExistingCheckpointsAndKeepsServing) {
  const Csr train = testing::random_csr(50, 30, 0.2, 10);
  const auto dir = fresh_dir("pipeline_resume");
  auto first = small_options(dir);
  const auto before = run_pipeline(train, first);
  ASSERT_TRUE(before.ok()) << before.to_json();

  // Second leg: 4 more iterations on top of the 4 checkpointed ones.
  auto second = small_options(dir);
  second.als.iterations = 8;
  second.resume = true;
  const auto report = run_pipeline(train, second);
  EXPECT_EQ(report.resumed_from, 4);
  EXPECT_EQ(report.iterations, 4);  // only the remaining work ran
  EXPECT_EQ(report.swaps, 2u);
  EXPECT_TRUE(report.ok()) << report.to_json();
  const auto ckpts = robust::list_checkpoints(dir);
  ASSERT_FALSE(ckpts.empty());
  EXPECT_EQ(ckpts.back().iteration, 8);
}

TEST(Pipeline, RejectsMisconfiguration) {
  const Csr train = testing::random_csr(10, 10, 0.3, 11);
  PipelineOptions options;  // no checkpoint_dir
  EXPECT_THROW(run_pipeline(train, options), Error);
  options.checkpoint_dir = fresh_dir("pipeline_misconfig");
  options.als.iterations = 0;
  EXPECT_THROW(run_pipeline(train, options), Error);
}

}  // namespace
}  // namespace alsmf::pipeline
