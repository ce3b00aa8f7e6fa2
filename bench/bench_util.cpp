#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "als/solver.hpp"

namespace alsmf::bench {

BenchArgs parse_bench_args(int argc, const char* const* argv,
                           const std::vector<std::string_view>& own_flags) {
  BenchArgs args{CliArgs(argc, argv), 1.0, false, 42, ""};
  const std::string name =
      std::filesystem::path(args.cli.program()).filename().string();
  std::vector<std::string_view> accepted = {"scale", "smoke", "seed",
                                            "json-out"};
  accepted.insert(accepted.end(), own_flags.begin(), own_flags.end());
  if (const auto unknown = args.cli.unknown_flag(accepted)) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", name.c_str(),
                 unknown->c_str());
    std::exit(2);
  }
  if (!args.cli.positional().empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", name.c_str(),
                 args.cli.positional().front().c_str());
    std::exit(2);
  }
  args.scale = args.cli.get_double("scale", 1.0);
  // The replicas are clamped to full size, so a scale of 0 or less would
  // build the full Table I datasets (tens of GB).
  if (!(args.scale > 0.0)) {
    std::fprintf(stderr, "%s: --scale must be > 0, got '%s'\n", name.c_str(),
                 args.cli.get_or("scale", "").c_str());
    std::exit(2);
  }
  args.smoke = args.cli.has_flag("smoke");
  if (args.smoke) args.scale *= 8.0;
  args.seed = static_cast<std::uint64_t>(args.cli.get_long("seed", 42));
  args.json_out = args.cli.get_or("json-out", "");
  return args;
}

double default_scale(const DatasetInfo& info) {
  const double target_nnz = 5e5;
  double scale = static_cast<double>(info.nnz) / target_nnz;
  if (scale <= 1.0) return 1.0;
  // Round to the nearest power of two for tidy reporting.
  return std::pow(2.0, std::round(std::log2(scale)));
}

std::vector<BenchDataset> load_table1(double extra_scale) {
  std::vector<BenchDataset> result;
  for (const auto& info : table1_datasets()) {
    BenchDataset d;
    d.abbr = info.abbr;
    d.scale = std::max(1.0, default_scale(info) * extra_scale);
    d.train = make_replica(info.abbr, d.scale);
    result.push_back(std::move(d));
  }
  return result;
}

AlsOptions paper_options() {
  AlsOptions o;
  o.k = 10;
  o.lambda = 0.1f;
  o.iterations = 5;
  o.num_groups = 8192;
  o.group_size = 32;
  o.functional = false;
  return o;
}

RunTimes run_als(const BenchDataset& data, const AlsOptions& options,
                 const AlsVariant& variant,
                 const devsim::DeviceProfile& profile) {
  devsim::Device device(profile);
  AlsSolver solver(data.train, options, variant, device);
  solver.run(RunConfig{});
  RunTimes t;
  t.replica = device.modeled_seconds();
  t.full = device.modeled_seconds_scaled(data.scale);
  return t;
}

void print_header(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Times are modeled device seconds; `full` extrapolates the\n");
  std::printf("replica's counters to the full Table I dataset size.\n");
  std::printf("================================================================\n\n");
}

}  // namespace alsmf::bench
