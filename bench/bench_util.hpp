// Shared helpers for the figure/table reproduction benches.
//
// Each bench loads downscaled Table I replicas (generation cost and host
// memory bound the scale), runs the kernels in accounting-only mode, and
// reports two numbers per configuration:
//   * replica  — modeled seconds on the generated replica;
//   * full     — the same counters extrapolated to the full dataset size
//                (counters are linear in problem size; see devsim).
// The paper's published numbers correspond to the `full` column's shape.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "als/options.hpp"
#include "common/cli.hpp"
#include "data/datasets.hpp"
#include "devsim/device.hpp"
#include "sparse/csr.hpp"

namespace alsmf::bench {

/// Flags shared by every bench main:
///   --scale S     extra downscale multiplier, > 0 (>1 shrinks the replicas)
///   --smoke       quick CI-sized run (multiplies the scale by 8)
///   --seed N      RNG seed for benches that randomize
///   --json-out F  machine-readable output path for benches that export one
/// A bench's own flags are named to parse_bench_args and read through
/// `cli`.
struct BenchArgs {
  CliArgs cli;
  double scale = 1.0;  ///< effective scale (smoke multiplier applied)
  bool smoke = false;
  std::uint64_t seed = 42;
  std::string json_out;
};

/// Parses the shared flags. Any flag that is neither shared nor in
/// `own_flags`, and any positional argument, is named on stderr and exits 2
/// before the bench does any work.
BenchArgs parse_bench_args(int argc, const char* const* argv,
                           const std::vector<std::string_view>& own_flags = {});

struct BenchDataset {
  std::string abbr;
  double scale = 1.0;  ///< full-size / replica-size factor
  Csr train;
};

/// Default replica scale per dataset: full size divided down so each
/// replica lands near ~500k nonzeros (YMR4 runs at full scale).
double default_scale(const DatasetInfo& info);

/// Loads all four Table I replicas (paper order), honoring an optional
/// scale multiplier (>1 shrinks further; useful for quick runs).
std::vector<BenchDataset> load_table1(double extra_scale = 1.0);

/// The paper's experiment configuration: k=10, lambda=0.1, 5 iterations,
/// 8192 x 32 thread configuration, accounting-only execution.
AlsOptions paper_options();

/// Runs one ALS configuration and returns {replica_seconds, full_seconds}.
struct RunTimes {
  double replica = 0;
  double full = 0;
};
RunTimes run_als(const BenchDataset& data, const AlsOptions& options,
                 const AlsVariant& variant, const devsim::DeviceProfile& profile);

/// Prints the standard bench header line.
void print_header(const char* title, const char* paper_ref);

}  // namespace alsmf::bench
