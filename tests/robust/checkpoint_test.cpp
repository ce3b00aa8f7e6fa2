#include "robust/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "als/solver.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "robust/fault_injection.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

robust::TrainingCheckpoint sample_checkpoint() {
  robust::TrainingCheckpoint ckpt;
  ckpt.options_hash = 0xdeadbeefcafef00dULL;
  ckpt.iteration = 7;
  ckpt.rng_state = {1, 2, 3, 4};
  Rng rng(99);
  ckpt.x = Matrix(6, 4);
  ckpt.x.fill_uniform(rng, -1.0f, 1.0f);
  ckpt.y = Matrix(5, 4);
  ckpt.y.fill_uniform(rng, -1.0f, 1.0f);
  return ckpt;
}

void flip_byte(const fs::path& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ 0xff));
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Checkpoint, RoundTripIsBitwiseExact) {
  const auto dir = fresh_dir("ckpt_roundtrip");
  const auto ckpt = sample_checkpoint();
  const auto path = robust::checkpoint_path(dir.string(), ckpt.iteration);
  robust::save_checkpoint_file(path, ckpt);

  const auto loaded = robust::load_checkpoint_file(path);
  EXPECT_EQ(loaded.options_hash, ckpt.options_hash);
  EXPECT_EQ(loaded.iteration, ckpt.iteration);
  EXPECT_EQ(loaded.rng_state, ckpt.rng_state);
  EXPECT_EQ(loaded.x, ckpt.x);  // Matrix operator== is bitwise
  EXPECT_EQ(loaded.y, ckpt.y);
}

TEST(Checkpoint, SaveIsAtomicNoTmpLeftBehind) {
  const auto dir = fresh_dir("ckpt_atomic");
  const auto path = robust::checkpoint_path(dir.string(), 1);
  robust::save_checkpoint_file(path, sample_checkpoint());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwriting an existing checkpoint goes through the same tmp+rename.
  auto updated = sample_checkpoint();
  updated.iteration = 42;
  robust::save_checkpoint_file(path, updated);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(robust::load_checkpoint_file(path).iteration, 42);
}

TEST(Checkpoint, CorruptedPayloadFailsCrcWithOffset) {
  const auto dir = fresh_dir("ckpt_crc");
  const auto path = robust::checkpoint_path(dir.string(), 1);
  robust::save_checkpoint_file(path, sample_checkpoint());
  // Offset 120 lands inside the X factor section's float payload
  // (magic 8 + header section 72 + X tag/len 12 + shape 16 = 108).
  flip_byte(path, 120);

  const auto msg =
      error_message([&] { robust::load_checkpoint_file(path); });
  EXPECT_NE(msg.find("CRC mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const auto dir = fresh_dir("ckpt_trunc");
  const auto path = robust::checkpoint_path(dir.string(), 1);
  robust::save_checkpoint_file(path, sample_checkpoint());
  fs::resize_file(path, fs::file_size(path) - 10);

  const auto msg =
      error_message([&] { robust::load_checkpoint_file(path); });
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at offset"), std::string::npos) << msg;
}

TEST(Checkpoint, BadMagicIsRejected) {
  const auto dir = fresh_dir("ckpt_magic");
  const auto path = robust::checkpoint_path(dir.string(), 1);
  robust::save_checkpoint_file(path, sample_checkpoint());
  flip_byte(path, 0);

  const auto msg =
      error_message([&] { robust::load_checkpoint_file(path); });
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

TEST(Checkpoint, InjectedIoFaultSurfacesAsTruncation) {
  const auto dir = fresh_dir("ckpt_iofault");
  const auto path = robust::checkpoint_path(dir.string(), 1);
  robust::save_checkpoint_file(path, sample_checkpoint());

  robust::FaultPlan plan;
  plan.exact[static_cast<int>(robust::FaultSite::kIoRead)] = {0};
  robust::ScopedFaultInjector scoped(plan);
  const auto msg =
      error_message([&] { robust::load_checkpoint_file(path); });
  EXPECT_NE(msg.find("injected I/O fault"), std::string::npos) << msg;
}

TEST(Checkpoint, ListAndPrune) {
  const auto dir = fresh_dir("ckpt_list");
  for (std::int64_t it : {3, 1, 5, 2, 4}) {
    auto ckpt = sample_checkpoint();
    ckpt.iteration = it;
    robust::save_checkpoint_file(robust::checkpoint_path(dir.string(), it),
                                 ckpt);
  }
  const auto all = robust::list_checkpoints(dir.string());
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].iteration, static_cast<std::int64_t>(i + 1));
  }

  robust::prune_checkpoints(dir.string(), 2);
  const auto kept = robust::list_checkpoints(dir.string());
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].iteration, 4);
  EXPECT_EQ(kept[1].iteration, 5);

  EXPECT_TRUE(robust::list_checkpoints((dir / "missing").string()).empty());
}

// ---------------------------------------------------------------------------
// Solver integration: save/resume semantics.

AlsOptions train_opts() {
  AlsOptions o;
  o.k = 4;
  o.lambda = 0.1f;
  o.iterations = 6;
  o.seed = 11;
  o.num_groups = 64;
  return o;
}

TEST(Checkpoint, TrajectoryHashCoversTrajectoryOnly) {
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const Csr other = testing::random_csr(41, 30, 0.2, 19);
  const AlsOptions base = train_opts();
  const auto h = trajectory_hash(base, train);

  // The launch shape does not change the factors, so checkpoints stay
  // interchangeable across it.
  AlsOptions groups = base;
  groups.num_groups = 256;
  EXPECT_EQ(trajectory_hash(groups, train), h);

  AlsOptions lambda = base;
  lambda.lambda = 0.2f;
  EXPECT_NE(trajectory_hash(lambda, train), h);
  AlsOptions rank = base;
  rank.k = 5;
  EXPECT_NE(trajectory_hash(rank, train), h);
  AlsOptions seed = base;
  seed.seed = 12;
  EXPECT_NE(trajectory_hash(seed, train), h);
  EXPECT_NE(trajectory_hash(base, other), h);
}

TEST(Checkpoint, TrajectoryHashValuesArePinned) {
  // A checkpoint resumes only under the hash it was written with, so these
  // values must not move when strategies or knobs are added or removed.
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const AlsOptions defaults;
  EXPECT_EQ(trajectory_hash(defaults, train), 0x688b46a8bdf18cceULL);
  AlsOptions subspace = defaults;
  subspace.row_solver = RowSolverKind::kSubspace;
  EXPECT_EQ(trajectory_hash(subspace, train), 0x963bc77e7eea3287ULL);
  subspace.subspace_block = 4;
  EXPECT_EQ(trajectory_hash(subspace, train), 0xf43c840c5f5ff48aULL);
}

TEST(Checkpoint, SolverRoundTripRestoresFullState) {
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const AlsOptions o = train_opts();
  const auto dir = fresh_dir("ckpt_solver");

  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  solver.run_iteration();
  solver.run_iteration();
  const auto path = robust::checkpoint_path(dir.string(), 2);
  solver.save_checkpoint(path);
  solver.run_iteration();  // diverge from the saved state

  devsim::Device device2(devsim::k20c());
  AlsSolver resumed(train, o, AlsVariant::batch_local_reg(), device2);
  resumed.resume_from_checkpoint(path);
  EXPECT_EQ(resumed.iterations_done(), 2);
  resumed.run_iteration();
  EXPECT_EQ(resumed.x(), solver.x());
  EXPECT_EQ(resumed.y(), solver.y());
}

TEST(Checkpoint, ResumeRefusesDifferentTrajectory) {
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const auto dir = fresh_dir("ckpt_mismatch");
  const auto path = robust::checkpoint_path(dir.string(), 1);

  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, train_opts(), AlsVariant::batch_local_reg(), device);
  solver.run_iteration();
  solver.save_checkpoint(path);

  AlsOptions other = train_opts();
  other.lambda = 0.5f;
  devsim::Device device2(devsim::k20c());
  AlsSolver mismatched(train, other, AlsVariant::batch_local_reg(), device2);
  EXPECT_THROW(mismatched.resume_from_checkpoint(path), Error);
  // resume_latest skips the mismatched file instead of throwing.
  EXPECT_EQ(mismatched.resume_latest(dir.string()), -1);
  EXPECT_EQ(mismatched.iterations_done(), 0);
}

TEST(Checkpoint, ResumeLatestSkipsCorruptNewest) {
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const AlsOptions o = train_opts();
  const auto dir = fresh_dir("ckpt_skip_corrupt");

  devsim::Device device(devsim::k20c());
  AlsSolver solver(train, o, AlsVariant::batch_local_reg(), device);
  solver.run_iteration();
  solver.save_checkpoint(robust::checkpoint_path(dir.string(), 1));
  solver.run_iteration();
  const auto newest = robust::checkpoint_path(dir.string(), 2);
  solver.save_checkpoint(newest);
  flip_byte(newest, 120);

  devsim::Device device2(devsim::k20c());
  AlsSolver resumed(train, o, AlsVariant::batch_local_reg(), device2);
  EXPECT_EQ(resumed.resume_latest(dir.string()), 1);
  EXPECT_EQ(resumed.iterations_done(), 1);
}

TEST(Checkpoint, KillMidIterationResumeMatchesUninterruptedRun) {
  const Csr train = testing::random_csr(40, 30, 0.2, 19);
  const AlsOptions o = train_opts();
  const auto dir = fresh_dir("ckpt_kill_resume");
  const CheckpointConfig config{dir.string(), /*every=*/1, /*keep=*/0};
  RunConfig ckpt_run;
  ckpt_run.checkpoint = config;

  devsim::Device ref_device(devsim::k20c());
  AlsSolver uninterrupted(train, o, AlsVariant::batch_local_reg(), ref_device);
  uninterrupted.run({});

  // Each iteration is two launches; occurrence 6 is iteration 4's update_x
  // and 7 its one relaunch, so the fault outlasts kKernelLaunchRetries. The
  // "crash" kills the run after checkpoints for iterations 1-3 landed.
  ASSERT_EQ(kKernelLaunchRetries, 1);
  {
    robust::FaultPlan plan;
    plan.exact[static_cast<int>(robust::FaultSite::kKernelLaunch)] = {6, 7};
    robust::ScopedFaultInjector scoped(plan);
    devsim::Device device(devsim::k20c());
    AlsSolver crashed(train, o, AlsVariant::batch_local_reg(), device);
    EXPECT_THROW(crashed.run(ckpt_run), Error);
    EXPECT_EQ(crashed.iterations_done(), 3);
  }
  ASSERT_EQ(robust::list_checkpoints(dir.string()).size(), 3u);

  // A fresh process resumes from the newest checkpoint and finishes.
  devsim::Device device(devsim::k20c());
  AlsSolver resumed(train, o, AlsVariant::batch_local_reg(), device);
  EXPECT_EQ(resumed.resume_latest(dir.string()), 3);
  resumed.run(ckpt_run);
  EXPECT_EQ(resumed.iterations_done(), o.iterations);

  EXPECT_EQ(resumed.x(), uninterrupted.x());  // bitwise
  EXPECT_EQ(resumed.y(), uninterrupted.y());
  EXPECT_NEAR(resumed.train_rmse(), uninterrupted.train_rmse(), 1e-6);
}

}  // namespace
}  // namespace alsmf
