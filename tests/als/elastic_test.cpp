// Elastic-coordinator fault tolerance: device loss, stragglers, link
// faults, checkpoint/resume across fleet sizes. Row solves are partition-
// independent, so every recovered run must reproduce the reference factors
// bit for bit — the strongest form of the convergence-under-faults gate.
#include <gtest/gtest.h>

#include <filesystem>

#include "als/metrics.hpp"
#include "als/multi_device.hpp"
#include "data/datasets.hpp"
#include "testing/reference.hpp"
#include "obs/registry.hpp"
#include "robust/fault_injection.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

using robust::FaultPlan;
using robust::FaultSite;
using robust::ScopedFaultInjector;
using robust::fault_key;

AlsOptions opts() {
  AlsOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.iterations = 3;
  o.seed = 7;
  o.num_groups = 256;
  return o;
}

std::vector<devsim::DeviceProfile> gpus(std::size_t n) {
  return std::vector<devsim::DeviceProfile>(n, devsim::k20c());
}

std::string fresh_dir(const char* name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ElasticMultiDevice, ZeroFaultBitwiseIdenticalToReference) {
  const Csr train = testing::random_csr(70, 45, 0.15, 201);
  const auto ref = reference_als(train, opts());
  // Injector installed, but the plan selects nothing: the elastic
  // coordinator must be indistinguishable from the synchronous trainer.
  ScopedFaultInjector scoped(FaultPlan{});
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(4));
  solver.run();
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
  const auto& report = solver.elastic_report();
  EXPECT_EQ(report.device_failures, 0u);
  EXPECT_EQ(report.repartitions, 0u);
  EXPECT_EQ(report.stragglers_detected, 0u);
  EXPECT_FALSE(report.degraded());
  EXPECT_GT(report.heartbeats, 0u);
}

TEST(ElasticMultiDevice, DeviceLossRepartitionsAndMatchesReference) {
  const Csr train = testing::random_csr(80, 50, 0.12, 203);
  const auto ref = reference_als(train, opts());

  // Kill device 1 on its third shard launch (mid-run, iteration 2's X
  // half-step) — the exact key fires for every seed.
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {fault_key(1, 2)};
  ScopedFaultInjector scoped(plan);

  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(4));
  solver.run();

  EXPECT_EQ(solver.alive_device_count(), 3);
  const auto& report = solver.elastic_report();
  EXPECT_EQ(report.device_failures, 1u);
  EXPECT_EQ(report.launch_failures, 1u);
  EXPECT_GE(report.repartitions, 1u);
  EXPECT_GE(report.recoveries, 1u);
  EXPECT_GT(report.mttr_total_seconds, 0.0);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(solver.health(1).state, DeviceHealth::State::kDead);

  // Survivors recompute the lost ranges from identical inputs: the factors
  // are bit-for-bit the no-fault factors, so the RMSE delta is exactly 0.
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
  EXPECT_DOUBLE_EQ(rmse(train, solver.x(), solver.y()),
                   rmse(train, ref.x, ref.y));

  // The post-loss layout covers all rows disjointly across 3 shards.
  const auto parts = solver.row_partitions();
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts.front().first, 0);
  EXPECT_EQ(parts.back().second, train.rows());
  for (std::size_t p = 1; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].first, parts[p - 1].second);
  }
}

TEST(ElasticMultiDevice, TwoDevicesLostInOneWaveRecoverBitwise) {
  const Csr train = testing::random_csr(80, 50, 0.12, 204);
  const auto ref = reference_als(train, opts());

  // Devices 1 and 2 both die on their third shard launch, in the same
  // wave. The recovery wave then gives each survivor one shard per lost
  // range — two shards on one device, which must run one after the other.
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {fault_key(1, 2),
                                                             fault_key(2, 2)};
  ScopedFaultInjector scoped(plan);

  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(4));
  solver.run();

  EXPECT_EQ(solver.alive_device_count(), 2);
  const auto& report = solver.elastic_report();
  EXPECT_EQ(report.device_failures, 2u);
  EXPECT_EQ(report.launch_failures, 2u);
  EXPECT_GE(report.recoveries, 1u);
  EXPECT_EQ(solver.health(1).state, DeviceHealth::State::kDead);
  EXPECT_EQ(solver.health(2).state, DeviceHealth::State::kDead);
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(ElasticMultiDevice, ProbabilisticFailuresStillConverge) {
  // Seed-swept in CI: whatever the seed selects, the run must complete with
  // the reference factors as long as one device survives. A low per-launch
  // probability on 4 devices x 6 half-steps keeps P(all dead) negligible,
  // and max_faults = 2 bounds it outright.
  const Csr train = testing::random_csr(60, 40, 0.15, 204);
  const auto ref = reference_als(train, opts());

  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.probability[static_cast<int>(FaultSite::kDeviceFailure)] = 0.05;
  plan.max_faults = 2;
  ScopedFaultInjector scoped(plan);

  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(4));
  solver.run();
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
  EXPECT_EQ(solver.elastic_report().device_failures,
            scoped.injector().triggered(FaultSite::kDeviceFailure));
}

TEST(ElasticMultiDevice, StragglerTriggersSpeculationAndWins) {
  const Csr train = make_replica("MVLE", 256.0);
  AlsOptions o = opts();
  o.functional = false;  // accounting-only: modeled time is what matters

  // Baseline modeled time with no faults.
  MultiDeviceAls clean(train, o, AlsVariant::batch_local_reg(), gpus(3));
  const double clean_seconds = clean.run();

  // Device 2's first launch runs >= 8x slow; the other shards set the
  // median, the deadline (3x median) expires, and the shard re-executes
  // speculatively on the fastest healthy device.
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kStraggler)] = {fault_key(2, 0)};
  ElasticOptions elastic;
  elastic.faults.straggler_slowdown_min = 8.0;
  elastic.faults.straggler_slowdown_max = 16.0;
  ScopedFaultInjector scoped(plan);

  MultiDeviceAls solver(train, o, AlsVariant::batch_local_reg(), gpus(3),
                        elastic);
  const double slow_seconds = solver.run();

  const auto& report = solver.elastic_report();
  EXPECT_GE(report.stragglers_detected, 1u);
  EXPECT_GE(report.speculative_reexecs, 1u);
  EXPECT_GE(report.speculation_wins, 1u);
  EXPECT_EQ(report.device_failures, 0u);
  EXPECT_EQ(solver.alive_device_count(), 3);

  // Speculation bounds the wave at deadline + re-execution: slower than the
  // clean run, but far below the raw 8-16x straggler tail.
  EXPECT_GT(slow_seconds, clean_seconds);
  EXPECT_LT(slow_seconds, 8.0 * clean_seconds);
}

TEST(ElasticMultiDevice, SpeculationPreservesFactors) {
  const Csr train = testing::random_csr(60, 40, 0.15, 205);
  const auto ref = reference_als(train, opts());
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kStraggler)] = {fault_key(0, 0),
                                                         fault_key(1, 3)};
  ElasticOptions elastic;
  elastic.faults.straggler_slowdown_min = 8.0;
  ScopedFaultInjector scoped(plan);
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(3),
                        elastic);
  solver.run();
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(ElasticMultiDevice, LinkFaultRetryIsPricedIntoCommunication) {
  const Csr train = make_replica("MVLE", 256.0);
  AlsOptions o = opts();
  o.functional = false;

  MultiDeviceAls clean(train, o, AlsVariant::batch_local_reg(), gpus(2));
  clean.run();

  // Device 0's first transfer attempt faults once, then succeeds on retry.
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kLinkTransfer)] = {fault_key(0, 0)};
  ScopedFaultInjector scoped(plan);
  MultiDeviceAls faulty(train, o, AlsVariant::batch_local_reg(), gpus(2));
  faulty.run();

  const auto& report = faulty.elastic_report();
  EXPECT_EQ(report.transfer_retries, 1u);
  EXPECT_EQ(report.link_failovers, 0u);
  EXPECT_EQ(faulty.health(0).transfer_retries, 1u);
  // The wasted attempt plus backoff shows up in the communication price.
  EXPECT_GT(faulty.communication_seconds(), clean.communication_seconds());
  EXPECT_EQ(faulty.alive_device_count(), 2);
}

TEST(ElasticMultiDevice, LinkExhaustionFailsTheDeviceOver) {
  const Csr train = testing::random_csr(70, 45, 0.15, 206);
  const auto ref = reference_als(train, opts());

  // Every transfer attempt of device 1 faults: initial + 3 retries exhausts
  // the budget and the device fails over.
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kLinkTransfer)] = {
      fault_key(1, 0), fault_key(1, 1), fault_key(1, 2), fault_key(1, 3)};
  ScopedFaultInjector scoped(plan);

  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(2));
  solver.run();

  const auto& report = solver.elastic_report();
  EXPECT_EQ(report.link_failovers, 1u);
  EXPECT_EQ(report.device_failures, 1u);
  EXPECT_EQ(solver.alive_device_count(), 1);
  EXPECT_GE(report.repartitions, 1u);
  // The stranded rows were recomputed on the survivor: exact factors.
  EXPECT_EQ(solver.x(), ref.x);
  EXPECT_EQ(solver.y(), ref.y);
}

TEST(ElasticMultiDevice, RecoveryMatchesSingleDeviceForEveryRowSolver) {
  // Subspace warm-starts each row from its previous factor value, so
  // a launch that re-solves rows after their first solve already landed in
  // dst (speculation, link failover) must still start from the factor as
  // it stood before the half-update.
  struct Case {
    const char* name;
    std::size_t devices;
    FaultPlan plan;
    ElasticOptions elastic;
  };
  std::vector<Case> cases(4);
  cases[0] = {"no fault", 4, {}, {}};
  cases[1] = {"speculation", 3, {}, {}};
  cases[1].plan.exact[static_cast<int>(FaultSite::kStraggler)] = {
      fault_key(0, 0), fault_key(1, 3)};
  cases[1].elastic.faults.straggler_slowdown_min = 8.0;
  cases[2] = {"device loss", 4, {}, {}};
  cases[2].plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {
      fault_key(1, 2)};
  cases[3] = {"link exhaustion", 2, {}, {}};
  cases[3].plan.exact[static_cast<int>(FaultSite::kLinkTransfer)] = {
      fault_key(1, 0), fault_key(1, 1), fault_key(1, 2), fault_key(1, 3)};
  for (Case& c : cases) c.plan.seed = testing::fault_seed();

  const Csr train = testing::random_csr(70, 45, 0.15, 212);
  for (const RowSolverKind kind :
       {RowSolverKind::kCholesky, RowSolverKind::kSubspace}) {
    AlsOptions o = opts();
    o.row_solver = kind;
    devsim::Device device(devsim::k20c());
    AlsSolver single(train, o, AlsVariant::batch_local_reg(), device);
    for (int i = 0; i < o.iterations; ++i) single.run_iteration();

    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      SCOPED_TRACE(std::string(to_string(kind)) + ", " + c.name);
      ScopedFaultInjector scoped(c.plan);
      MultiDeviceAls multi(train, o, AlsVariant::batch_local_reg(),
                           gpus(c.devices), c.elastic);
      multi.run();
      // Each fault case exercises exactly its recovery path.
      const auto& report = multi.elastic_report();
      EXPECT_EQ(report.speculative_reexecs > 0, i == 1);
      EXPECT_EQ(report.launch_failures > 0, i == 2);
      EXPECT_EQ(report.link_failovers > 0, i == 3);
      EXPECT_EQ(multi.x(), single.x());
      EXPECT_EQ(multi.y(), single.y());
    }
  }
}

TEST(ElasticMultiDevice, AllDevicesLostThrows) {
  const Csr train = testing::random_csr(40, 30, 0.2, 207);
  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {fault_key(0, 0),
                                                             fault_key(1, 0)};
  ScopedFaultInjector scoped(plan);
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(2));
  EXPECT_THROW(solver.run(), Error);
}

TEST(ElasticMultiDevice, KernelLaunchFaultIsRelaunchedOnItsDevice) {
  // An injected launch fault is transient: the shard relaunches on its own
  // card within the guard budget, no device is lost, and the factors are
  // the fault-free run's.
  const Csr train = testing::random_csr(70, 45, 0.15, 201);
  MultiDeviceAls clean(train, opts(), AlsVariant::batch_local_reg(), gpus(4));
  clean.run();

  FaultPlan plan;
  plan.exact[static_cast<int>(FaultSite::kKernelLaunch)] = {0};
  ScopedFaultInjector scoped(plan);
  MultiDeviceAls faulted(train, opts(), AlsVariant::batch_local_reg(),
                         gpus(4));
  faulted.run();
  EXPECT_EQ(scoped.injector().triggered(FaultSite::kKernelLaunch), 1u);
  const auto& report = faulted.elastic_report();
  EXPECT_EQ(report.kernel_relaunches, 1u);
  EXPECT_EQ(report.device_failures, 0u);
  EXPECT_EQ(report.launch_failures, 0u);
  EXPECT_EQ(report.devices_alive, 4);
  EXPECT_EQ(faulted.x(), clean.x());
  EXPECT_EQ(faulted.y(), clean.y());
}

TEST(ElasticMultiDevice, LaunchConfigurationErrorLosesNoDevice) {
  // A launch that does not fit (k = 100 subspace rows overflow the K20c's
  // 48 KiB scratch-pad) would fail on every card: it escapes with its own
  // message instead of being retried and blamed on the devices.
  const Csr train = testing::random_csr(300, 200, 0.1, 17);
  AlsOptions o = opts();
  o.k = 100;
  o.iterations = 1;
  o.row_solver = RowSolverKind::kSubspace;
  o.functional = false;
  MultiDeviceAls solver(train, o, AlsVariant::from_mask(1), gpus(4));
  try {
    solver.run();
    ADD_FAILURE() << "the launch fitted the scratch-pad";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'solve_scratch'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(solver.elastic_report().device_failures, 0u);
  EXPECT_EQ(solver.elastic_report().kernel_relaunches, 0u);
}

TEST(ElasticMultiDevice, CheckpointResumeAcrossDeviceCounts) {
  const Csr train = testing::random_csr(60, 40, 0.15, 208);
  const auto ref = reference_als(train, opts());
  const std::string dir = fresh_dir("alsmf_elastic_ckpt");

  // 4 devices run 2 of the 3 iterations, checkpointing each.
  {
    MultiDeviceAls writer(train, opts(), AlsVariant::batch_local_reg(),
                          gpus(4));
    MultiRunConfig config;
    config.iterations = 2;
    config.checkpoint = CheckpointConfig{dir, 1, 3};
    const auto report = writer.run(config);
    EXPECT_EQ(report.iterations, 2);
  }

  // A 2-device fleet resumes the same trajectory and finishes it: the
  // checkpoint stores global factors, never the partition layout.
  MultiDeviceAls reader(train, opts(), AlsVariant::batch_local_reg(), gpus(2));
  MultiRunConfig config;
  config.checkpoint = CheckpointConfig{dir, 1, 3};
  config.resume = true;
  const auto report = reader.run(config);
  EXPECT_EQ(report.resumed_from, 2);
  EXPECT_EQ(report.iterations, 1);
  EXPECT_EQ(reader.iterations_done(), 3);
  EXPECT_EQ(reader.x(), ref.x);
  EXPECT_EQ(reader.y(), ref.y);
}

TEST(ElasticMultiDevice, ResumeIgnoresMismatchedTrajectory) {
  const Csr train = testing::random_csr(50, 30, 0.2, 209);
  const std::string dir = fresh_dir("alsmf_elastic_ckpt_mismatch");
  {
    MultiDeviceAls writer(train, opts(), AlsVariant::batch_local_reg(),
                          gpus(2));
    MultiRunConfig config;
    config.iterations = 1;
    config.checkpoint = CheckpointConfig{dir, 1, 3};
    writer.run(config);
  }
  AlsOptions other = opts();
  other.lambda = 0.5f;  // different trajectory
  MultiDeviceAls reader(train, other, AlsVariant::batch_local_reg(), gpus(2));
  EXPECT_EQ(reader.resume_latest(dir), -1);
  EXPECT_EQ(reader.iterations_done(), 0);
}

TEST(ElasticMultiDevice, RecoveryMetricsAreExposed) {
  const Csr train = testing::random_csr(60, 40, 0.15, 210);
  FaultPlan plan;
  plan.seed = testing::fault_seed();
  plan.exact[static_cast<int>(FaultSite::kDeviceFailure)] = {fault_key(0, 1)};
  ScopedFaultInjector scoped(plan);

  obs::Registry registry;
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(3));
  MultiRunConfig config;
  config.metrics = &registry;
  solver.run(config);

  const auto& report = solver.elastic_report();
  EXPECT_EQ(registry.counter("elastic_device_failures_total").value(),
            report.device_failures);
  EXPECT_EQ(registry.counter("elastic_repartitions_total").value(),
            report.repartitions);
  EXPECT_EQ(registry.counter("elastic_recoveries_total").value(),
            report.recoveries);
  EXPECT_EQ(registry.histogram("elastic_mttr_seconds").count(),
            report.recoveries);
  EXPECT_DOUBLE_EQ(registry.gauge("elastic_alive_devices").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("elastic_degraded").value(), 1.0);
  // Exposition carries the series end to end.
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("elastic_device_failures_total"), std::string::npos);
  EXPECT_NE(text.find("elastic_mttr_seconds"), std::string::npos);
  // The devices' own series ride along on the same registry.
  EXPECT_NE(text.find("devsim_"), std::string::npos);
}

TEST(ElasticMultiDevice, ReportSerializesToJson) {
  const Csr train = testing::random_csr(40, 30, 0.2, 211);
  MultiDeviceAls solver(train, opts(), AlsVariant::batch_local_reg(), gpus(2));
  solver.run();
  const std::string json = solver.elastic_report().to_json();
  EXPECT_NE(json.find("\"device_failures\""), std::string::npos);
  EXPECT_NE(json.find("\"mttr_mean_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
}

}  // namespace
}  // namespace alsmf
