// Host micro-benchmarks (google-benchmark): the real wall-clock cost of
// the primitive kernels every ALS variant is built from.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "als/row_solve.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "linalg/batched.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "sparse/convert.hpp"

namespace {

using namespace alsmf;

std::vector<real> random_spd(int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> b(static_cast<std::size_t>(k) * k);
  for (auto& v : b) v = static_cast<real>(rng.uniform(-1.0, 1.0));
  std::vector<real> a(static_cast<std::size_t>(k) * k, real{0});
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      real s = (i == j) ? real{1} : real{0};
      for (int p = 0; p < k; ++p) s += b[p * k + i] * b[p * k + j];
      a[i * k + j] = s;
    }
  }
  return a;
}

void BM_CholeskySolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto spd = random_spd(k, 1);
  std::vector<real> a(spd.size());
  std::vector<real> b(static_cast<std::size_t>(k), 1.0f);
  for (auto _ : state) {
    std::copy(spd.begin(), spd.end(), a.begin());
    std::fill(b.begin(), b.end(), 1.0f);
    benchmark::DoNotOptimize(cholesky_solve(a.data(), k, b.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CholeskySolve)->Arg(10)->Arg(32)->Arg(64)->Arg(100);

void BM_LuSolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto spd = random_spd(k, 1);
  std::vector<real> a(spd.size());
  std::vector<real> b(static_cast<std::size_t>(k), 1.0f);
  for (auto _ : state) {
    std::copy(spd.begin(), spd.end(), a.begin());
    std::fill(b.begin(), b.end(), 1.0f);
    benchmark::DoNotOptimize(lu_solve(a.data(), k, b.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LuSolve)->Arg(10)->Arg(32)->Arg(100);

void BM_BatchedCholesky(benchmark::State& state) {
  const int k = 10;
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto spd = random_spd(k, 2);
  std::vector<real> as(batch * spd.size());
  std::vector<real> rhs(batch * static_cast<std::size_t>(k), 1.0f);
  ThreadPool pool;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      std::copy(spd.begin(), spd.end(), as.begin() + static_cast<std::ptrdiff_t>(i * spd.size()));
    }
    benchmark::DoNotOptimize(
        batched_cholesky_solve(as.data(), rhs.data(), batch, k, pool));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchedCholesky)->Arg(256)->Arg(4096);

/// One row of omega ratings: the direct and the product-table forms of the
/// same assembly (bitwise equal results). The table is built outside the
/// timed loop, as a trainer builds it once per half-update; items are
/// ratings. With `source_rows` 0 the row gathers rows 0…ω−1 of an ω-row
/// factor in order, one stream the prefetchers hide; otherwise it gathers
/// ω rows drawn at random (fixed seed) from a factor of that many rows, as
/// a half-update's rows do.
struct AssembleInput {
  int k;
  Matrix y;
  std::vector<index_t> cols;
  std::vector<real> vals;
  std::vector<real> smat, svec;

  AssembleInput(const benchmark::State& state, std::int64_t source_rows)
      : k(static_cast<int>(state.range(0))),
        y(static_cast<index_t>(source_rows > 0 ? source_rows
                                               : state.range(1)),
          k),
        cols(static_cast<std::size_t>(state.range(1))),
        vals(cols.size(), 3.0f),
        smat(static_cast<std::size_t>(k) * static_cast<std::size_t>(k)),
        svec(static_cast<std::size_t>(k)) {
    Rng rng(3);
    y.fill_uniform(rng, -1, 1);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      cols[i] = source_rows > 0 ? static_cast<index_t>(rng.bounded(
                                      static_cast<std::uint64_t>(source_rows)))
                                : static_cast<index_t>(i);
    }
  }
};

void assemble_args(benchmark::internal::Benchmark* b) {
  b->Args({10, 32})
      ->Args({10, 256})
      ->Args({10, 4096})
      ->Args({100, 256})
      ->Args({2, 256})
      ->Args({4, 256})
      ->Args({16, 256});
}

/// k = 10 over sources the size of NTFX/64's two halves (2,221 item rows
/// for the X half, 7,503 user rows for the Y half); the third argument is
/// the source's row count.
void random_assemble_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t rows : {2221, 7503}) {
    b->Args({10, 256, rows})->Args({10, 4096, rows});
  }
}

void assemble_direct(benchmark::State& state, AssembleInput in) {
  for (auto _ : state) {
    assemble_normal_equations(in.cols, in.vals, in.y, 0.1f, in.k,
                              in.smat.data(), in.svec.data());
    benchmark::DoNotOptimize(in.smat.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.cols.size()));
}

void assemble_from_products(benchmark::State& state, AssembleInput in) {
  ProductTable products;
  products.build(in.y);
  for (auto _ : state) {
    assemble_normal_equations(in.cols, in.vals, products, 0.1f, in.k,
                              in.smat.data(), in.svec.data());
    benchmark::DoNotOptimize(in.smat.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.cols.size()));
}

void BM_AssembleNormalEquations(benchmark::State& state) {
  assemble_direct(state, AssembleInput(state, 0));
}
BENCHMARK(BM_AssembleNormalEquations)->Apply(assemble_args);

void BM_AssembleFromProducts(benchmark::State& state) {
  assemble_from_products(state, AssembleInput(state, 0));
}
BENCHMARK(BM_AssembleFromProducts)->Apply(assemble_args);

void BM_AssembleNormalEquationsRandom(benchmark::State& state) {
  assemble_direct(state, AssembleInput(state, state.range(2)));
}
BENCHMARK(BM_AssembleNormalEquationsRandom)->Apply(random_assemble_args);

void BM_AssembleFromProductsRandom(benchmark::State& state) {
  assemble_from_products(state, AssembleInput(state, state.range(2)));
}
BENCHMARK(BM_AssembleFromProductsRandom)->Apply(random_assemble_args);

void BM_CsrTranspose(benchmark::State& state) {
  SyntheticSpec spec;
  spec.users = 20000;
  spec.items = 5000;
  spec.nnz = static_cast<nnz_t>(state.range(0));
  spec.seed = 4;
  const Csr csr = generate_synthetic_csr(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpose(csr));
  }
  state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_CsrTranspose)->Arg(100000)->Arg(500000);

void BM_SyntheticGeneration(benchmark::State& state) {
  SyntheticSpec spec;
  spec.users = 10000;
  spec.items = 4000;
  spec.nnz = static_cast<nnz_t>(state.range(0));
  for (auto _ : state) {
    spec.seed += 1;  // avoid any caching illusions
    benchmark::DoNotOptimize(generate_synthetic(spec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticGeneration)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
