// Table I: dataset statistics — and evidence the synthetic replicas match
// the originals' shape (density, mean ratings/user, skew).
#include <cstdio>

#include "bench_util.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  using namespace alsmf;
  using namespace alsmf::bench;
  parse_bench_args(argc, argv);  // takes no flag of its own

  print_header("Table I — datasets and their synthetic replicas",
               "Table I (m, n, training Nz per dataset)");

  std::printf("%-6s %10s %9s %12s | %7s %10s %9s %11s | %9s %9s %8s\n",
              "Abbr", "m", "n", "Nz", "scale", "m'", "n'", "Nz'",
              "mean nnz/u", "max nnz/u", "gini");
  for (const auto& info : table1_datasets()) {
    const double scale = default_scale(info);
    const Csr replica = make_replica(info.abbr, scale);
    const SliceStats rows = row_stats(replica);
    std::printf("%-6s %10lld %9lld %12lld | %7.0f %10lld %9lld %11lld | %9.1f %9lld %8.3f\n",
                info.abbr.c_str(), static_cast<long long>(info.users),
                static_cast<long long>(info.items),
                static_cast<long long>(info.nnz), scale,
                static_cast<long long>(replica.rows()),
                static_cast<long long>(replica.cols()),
                static_cast<long long>(replica.nnz()), rows.mean,
                static_cast<long long>(rows.max), rows.gini);
  }
  std::printf("\nPaper Table I values: MVLE 71567x65133/8000044, "
              "NTFX 480189x17770/99072112,\n"
              "YMR1 1948882x98212/115248575, YMR4 7642x11916/211231.\n");
  return 0;
}
