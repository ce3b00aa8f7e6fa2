// Golden-hash pinning of trained factors: the CRC-32 of X‖Y after two
// AlsSolver iterations on a seeded NTFX replica, per kernel path, plus the
// factors of 20 fold-ins against the trained Y, and of two DeviceImplicitAls
// iterations on the gpu and cpu profiles. Every path assembles its normal
// equations in one fixed summation order (row_solve.hpp), so these bits do
// not depend on the staging tile, the work-group mapping or how the
// compiler vectorizes the assembly. A drift means the arithmetic changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "als/implicit.hpp"
#include "als/solver.hpp"
#include "data/datasets.hpp"
#include "devsim/device.hpp"
#include "recsys/fold_in.hpp"
#include "testing/golden.hpp"

namespace alsmf {
namespace {

// The hashes were recorded with the one-rating-at-a-time assembly that the
// register-blocked accumulator replaced: they pin that the blocking changed
// no bit. The implicit ones were recorded when implicit rows still summed
// ((c − 1)·y_i)·y_j over the full k×k square in a kernel of their own; they
// pin that the batched kernel's matrix-weighted sum reproduces it.
// Regenerating after a DELIBERATE arithmetic change: run the test; each
// mismatch prints the new hash in this table's format. Before pasting it,
// confirm the new factors differ from the old ones only as intended (for
// example by diffing RMSE and max |Δ| against a build of the parent).
const std::vector<std::pair<std::string, std::uint32_t>> kGolden = {
    {"k10/gpu/batch+local+reg", 0x083fb3a3u},
    {"k10/gpu/batch+local+reg/tile4", 0x083fb3a3u},
    {"k10/cpu/batch", 0x083fb3a3u},
    {"k10/mic/flat", 0x083fb3a3u},
    {"k10/fold_in_user x20", 0xbc8d33b9u},
    {"k7/gpu/batch+local+reg", 0x485948ecu},
    {"k7/gpu/batch+local+reg/tile4", 0x485948ecu},
    {"k7/cpu/batch", 0x485948ecu},
    {"k7/mic/flat", 0x485948ecu},
    {"k7/fold_in_user x20", 0xd06273a7u},
    {"k10/gpu/implicit", 0xa525978cu},
    {"k10/cpu/implicit", 0xa525978cu},
    {"k7/gpu/implicit", 0x5975b154u},
    {"k7/cpu/implicit", 0x5975b154u},
};

constexpr char kRegen[] = "test_als --gtest_filter='FactorGolden.*'";

struct Path {
  const char* device;
  AlsVariant variant;
  int tile_rows;  ///< 0 = the kernel's automatic staging tile
};

const Csr& replica() {
  static const Csr csr = make_replica("NTFX", 512.0, 11);
  return csr;
}

std::string bytes_of(const real* p, std::size_t n) {
  return {reinterpret_cast<const char*>(p), n * sizeof(real)};
}

std::string bytes_of(const Matrix& m) { return bytes_of(m.data(), m.size()); }

AlsOptions golden_options(int k, int tile_rows) {
  AlsOptions o;
  o.k = k;
  o.lambda = 0.1f;
  o.seed = 5;
  o.tile_rows = tile_rows;
  return o;
}

/// Trains two iterations on `path`; returns X‖Y and hands back Y.
std::string train_payload(const Path& path, int k, Matrix* y_out = nullptr) {
  devsim::Device device(devsim::profile_by_name(path.device));
  AlsSolver solver(replica(), golden_options(k, path.tile_rows), path.variant,
                   device);
  solver.run_iteration();
  solver.run_iteration();
  if (y_out) *y_out = solver.y();
  return bytes_of(solver.x()) + bytes_of(solver.y());
}

std::string k_name(int k) {
  std::string name = "k";
  name += std::to_string(k);
  return name;
}

std::string path_name(int k, const Path& path) {
  std::string name = k_name(k) + "/" + path.device + "/" + path.variant.name();
  if (path.tile_rows > 0) name += "/tile" + std::to_string(path.tile_rows);
  return name;
}

std::uint32_t golden(const std::string& name) {
  for (const auto& [entry, crc] : kGolden) {
    if (entry == name) return crc;
  }
  ADD_FAILURE() << "no golden entry named " << name;
  return 0;
}

TEST(FactorGolden, ReplicaIsLargeEnoughToCrossEveryBoundary) {
  // Rows longer than a 4-row staging tile and than one 64-row block of the
  // accumulator, so both chunk boundaries are crossed on every path.
  const Csr& r = replica();
  index_t longest = 0;
  for (index_t u = 0; u < r.rows(); ++u) longest = std::max(longest, r.row_nnz(u));
  EXPECT_GT(longest, 2 * 64);
  EXPECT_GE(r.rows(), 20);
}

TEST(FactorGolden, TrainedFactorsMatchPinnedHashes) {
  const std::vector<Path> paths = {
      {"gpu", AlsVariant::batch_local_reg(), 0},
      {"gpu", AlsVariant::batch_local_reg(), 4},
      {"cpu", AlsVariant::batching_only(), 0},
      {"mic", AlsVariant::flat_baseline(), 0},
  };
  for (const int k : {10, 7}) {
    for (const Path& path : paths) {
      const std::string name = path_name(k, path);
      testing::expect_golden_crc(name, train_payload(path, k), golden(name),
                                 kRegen);
    }
  }
}

TEST(FactorGolden, FoldInsMatchPinnedHashes) {
  const Csr& r = replica();
  for (const int k : {10, 7}) {
    Matrix y;
    train_payload({"gpu", AlsVariant::batch_local_reg(), 0}, k, &y);
    std::string payload;
    int folded = 0;
    for (index_t u = 0; u < r.rows() && folded < 20; ++u) {
      if (r.row_nnz(u) == 0) continue;
      const auto x = fold_in_user(y, r.row_cols(u), r.row_values(u), 0.1f);
      payload += bytes_of(x.data(), x.size());
      ++folded;
    }
    ASSERT_EQ(folded, 20);
    const std::string name = k_name(k) + "/fold_in_user x20";
    testing::expect_golden_crc(name, payload, golden(name), kRegen);
  }
}

TEST(FactorGolden, ImplicitFactorsMatchPinnedHashes) {
  for (const int k : {10, 7}) {
    ImplicitOptions o;
    o.k = k;
    o.lambda = 0.1f;
    o.seed = 5;
    o.iterations = 2;
    for (const char* profile : {"gpu", "cpu"}) {
      devsim::Device device(devsim::profile_by_name(profile));
      DeviceImplicitAls solver(replica(), o, device);
      solver.run();
      const std::string name = k_name(k) + "/" + profile + "/implicit";
      testing::expect_golden_crc(name,
                                 bytes_of(solver.x()) + bytes_of(solver.y()),
                                 golden(name), kRegen);
    }
  }
}

}  // namespace
}  // namespace alsmf
