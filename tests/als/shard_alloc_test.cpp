// A no-fault multi-device iteration moves factor rows only: its shards share
// the rating slices cut when the layout was made, so no wave copies a CSR,
// and one product table per half-update. A Device keeps its launch arenas
// and its per-block counter lists.
//
// The test counts heap bytes through a replacement global operator new, so
// it is built as a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>

#include "als/kernels.hpp"
#include "als/multi_device.hpp"
#include "als/solver.hpp"
#include "testing/util.hpp"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t align) {
  return counted_alloc(n, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace alsmf {
namespace {

std::size_t bytes_allocated_by(const std::function<void()>& fn) {
  const std::size_t before = g_allocated_bytes.load();
  fn();
  return g_allocated_bytes.load() - before;
}

TEST(ShardAlloc, NoFaultIterationCopiesNoShardCsr) {
  // ~60k ratings, far above (rows + cols)·k = 9k: the two shard-local
  // outputs (X and Y rows, 4 bytes per element) fit under the bound of
  // 4 bytes per rating, while one CSR copy costs at least 12.
  const Csr train = testing::random_csr(500, 400, 0.3, 2201);
  const auto nnz = static_cast<double>(train.nnz());
  ASSERT_GT(nnz, (500.0 + 400.0) * 10.0);

  AlsOptions o;
  o.k = 10;
  o.lambda = 0.1f;
  o.seed = 7;
  o.num_groups = 256;
  // A 1 KiB scratch-pad (the batched kernel needs 512 bytes at k = 10):
  // each worker's launch arena then costs at most 1 KiB, so how many
  // workers a launch happens to use cannot move the difference much.
  devsim::DeviceProfile profile = devsim::k20c();
  profile.local_mem_bytes = 1024;
  const AlsVariant variant = AlsVariant::batching_only();

  devsim::Device device(profile);
  AlsSolver single(train, o, variant, device);
  MultiDeviceAls multi(train, o, variant, {profile});
  // Warm-up: the first launches create the devices' per-kernel records.
  single.run_iteration();
  multi.run_iteration();

  const std::size_t single_bytes =
      bytes_allocated_by([&] { single.run_iteration(); });
  const std::size_t multi_bytes =
      bytes_allocated_by([&] { multi.run_iteration(); });
  EXPECT_LT(static_cast<double>(multi_bytes) -
                static_cast<double>(single_bytes),
            4.0 * nnz)
      << "single " << single_bytes << " B, multi " << multi_bytes
      << " B per iteration, nnz " << train.nnz();
  // Same launches on the same input: the factors agree bitwise.
  EXPECT_EQ(multi.x(), single.x());
  EXPECT_EQ(multi.y(), single.y());
}

TEST(ShardAlloc, OneProductTablePerHalfUpdate) {
  // Every shard of a half-update reads the same src, so the coordinator
  // builds its product table once and shares it; a table per shard (four
  // here) or a fresh one per half-update would allocate at least the two
  // tables' bytes again on every iteration. The factors are large enough
  // that the tables (~1.2 MB) outweigh what each extra shard launch
  // allocates for its counters and its shard-local output.
  const Csr train = testing::random_csr(2400, 2000, 0.04, 2203);
  AlsOptions o;
  o.k = 10;
  o.lambda = 0.1f;
  o.seed = 7;
  o.num_groups = 256;
  ASSERT_TRUE(product_table_pays(o.k, train.rows()));
  ASSERT_TRUE(product_table_pays(o.k, train.cols()));
  const double table_bytes =
      static_cast<double>(ProductTable::bytes(o.k, train.rows()) +
                          ProductTable::bytes(o.k, train.cols()));

  // As above: a small scratch-pad keeps the launch arenas out of the count.
  devsim::DeviceProfile profile = devsim::k20c();
  profile.local_mem_bytes = 1024;
  const AlsVariant variant = AlsVariant::batching_only();

  devsim::Device device(profile);
  AlsSolver single(train, o, variant, device);
  MultiDeviceAls multi(train, o, variant, {profile, profile, profile, profile});
  single.run_iteration();
  multi.run_iteration();

  const std::size_t single_bytes =
      bytes_allocated_by([&] { single.run_iteration(); });
  const std::size_t multi_bytes =
      bytes_allocated_by([&] { multi.run_iteration(); });
  EXPECT_LT(static_cast<double>(multi_bytes) -
                static_cast<double>(single_bytes),
            table_bytes)
      << "single " << single_bytes << " B, multi " << multi_bytes
      << " B per iteration, tables " << table_bytes << " B";
  EXPECT_EQ(multi.x(), single.x());
  EXPECT_EQ(multi.y(), single.y());
}

TEST(DeviceArena, SecondCpuLaunchReusesArenas) {
  // The cpu profile's emulated scratch-pad is 4 MiB per arena; a Device
  // sizes its arenas on the first launch and keeps them.
  devsim::Device device(devsim::xeon_e5_2670_dual());
  ASSERT_GE(devsim::local_capacity_bytes(device.profile()),
            std::size_t{1} << 20);
  devsim::LaunchConfig config;
  config.num_groups = 256;
  config.group_size = 32;
  const auto kernel = [](devsim::GroupCtx& ctx) {
    ctx.local_alloc<real>(16, "scratch");
  };
  device.launch("empty", config, kernel);
  const std::size_t second =
      bytes_allocated_by([&] { device.launch("empty", config, kernel); });
  EXPECT_LT(second, std::size_t{64} << 10) << second << " B";

  // Checked launches keep their own arena too.
  config.validate = true;
  device.launch("empty", config, kernel);
  const std::size_t checked =
      bytes_allocated_by([&] { device.launch("empty", config, kernel); });
  EXPECT_LT(checked, devsim::local_capacity_bytes(device.profile()))
      << checked << " B";
}

TEST(DeviceArena, RepeatedLaunchKeepsItsCounterLists) {
  // A launch sums its counters in up to 64 per-block section lists; the
  // Device keeps them across launches like the arenas, so once a kernel's
  // sections exist a repeated launch allocates only what launch_update and
  // the launch record need, not a list per block.
  const Csr r = testing::random_csr(500, 400, 0.1, 2207);
  ASSERT_GT(r.nnz(), 19000);
  const int k = 10;
  Matrix src(r.cols(), k);
  Rng rng(11);
  src.fill_uniform(rng, -0.5f, 0.5f);
  Matrix dst(r.rows(), k);
  ProductTable table;
  table.build(src);

  UpdateArgs args;
  args.r = &r;
  args.src = &src;
  args.dst = &dst;
  args.k = k;
  args.variant = AlsVariant::batch_local_reg();
  args.products = &table;
  devsim::Device device(devsim::k20c());
  const auto launch = [&] {
    launch_update(device, "update_x", args, 256, 32, /*functional=*/true);
  };
  launch();
  launch();
  const std::size_t third = bytes_allocated_by(launch);
  EXPECT_LT(third, std::size_t{4} << 10) << third << " B";
}

}  // namespace
}  // namespace alsmf
