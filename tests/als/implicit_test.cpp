#include "als/implicit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "testing/reference.hpp"
#include "als/solver.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vecops.hpp"
#include "recsys/ranking.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

struct Factors {
  Matrix x, y;
};

/// Trains on a fresh device of `profile` and returns the factors.
Factors train_implicit(const Csr& r, const ImplicitOptions& o,
                       const char* profile = "gpu") {
  devsim::Device device(devsim::profile_by_name(profile));
  DeviceImplicitAls solver(r, o, device);
  solver.run();
  return {solver.x(), solver.y()};
}

/// The serial oracle: implicit ALS one row and one rating at a time, each
/// rating adding ((c − 1)·y_i)·y_j to every element of the full k×k square
/// on top of G = YᵀY + λI. DeviceImplicitAls sums the same system through
/// the batched kernel's blocked accumulator and must match it bit for bit.
void oracle_solve_row(const real* gram, std::span<const index_t> cols,
                      std::span<const real> vals, const Matrix& src,
                      real alpha, int k, real* a, real* x) {
  const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  std::copy(gram, gram + kk, a);
  std::fill(x, x + k, real{0});
  for (std::size_t p = 0; p < cols.size(); ++p) {
    const real conf = real{1} + alpha * vals[p];
    auto yrow = src.row(cols[p]);
    // A += (c-1)·y yᵀ ; x += c·y   (p_ui = 1)
    for (int i = 0; i < k; ++i) {
      const real ci = (conf - real{1}) * yrow[static_cast<std::size_t>(i)];
      real* arow = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
      for (int j = 0; j < k; ++j) {
        arow[j] += ci * yrow[static_cast<std::size_t>(j)];
      }
      x[i] += conf * yrow[static_cast<std::size_t>(i)];
    }
  }
  if (!cholesky_solve(a, k, x)) std::fill(x, x + k, real{0});
}

void oracle_half_update(const Csr& r, const Matrix& src, Matrix& dst,
                        const ImplicitOptions& o) {
  const auto kk = static_cast<std::size_t>(o.k) * static_cast<std::size_t>(o.k);
  std::vector<real> gram(kk), a(kk);
  gram_full(src, o.lambda, gram.data());
  for (index_t u = 0; u < r.rows(); ++u) {
    oracle_solve_row(gram.data(), r.row_cols(u), r.row_values(u), src,
                     o.alpha, o.k, a.data(), dst.row(u).data());
  }
}

Factors oracle_implicit_als(const Csr& r, const ImplicitOptions& o) {
  Factors f;
  init_factors(r.rows(), r.cols(), o, f.x, f.y);
  const Csr rt = transpose(r);
  for (int it = 0; it < o.iterations; ++it) {
    oracle_half_update(r, f.y, f.x, o);
    oracle_half_update(rt, f.x, f.y, o);
  }
  return f;
}

ImplicitOptions small_opts() {
  ImplicitOptions o;
  o.k = 6;
  o.lambda = 0.1f;
  o.alpha = 10.0f;
  o.iterations = 6;
  o.seed = 9;
  return o;
}

ImplicitOptions opts() {
  ImplicitOptions o;
  o.k = 5;
  o.lambda = 0.1f;
  o.alpha = 15.0f;
  o.iterations = 4;
  o.seed = 21;
  return o;
}

/// Interaction data where users only interact with one of two item blocks.
Csr block_interactions(index_t users, index_t items, std::uint64_t seed) {
  Rng rng(seed);
  Coo coo(users, items);
  for (index_t u = 0; u < users; ++u) {
    const bool first_block = (u % 2) == 0;
    const index_t base = first_block ? 0 : items / 2;
    for (int j = 0; j < 8; ++j) {
      const index_t i =
          base + static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(items / 2)));
      coo.add(u, i, static_cast<real>(1.0 + rng.bounded(5)));
    }
  }
  coo.sort_row_major();
  coo.dedup_keep_last();
  return coo_to_csr(coo);
}

/// Every 7th user and the last 10 items have no interactions; every 11th
/// user (and, transposed, the items the dense users share) has more than
/// one 64-rating block of the accumulator.
Csr ragged_interactions(std::uint64_t seed) {
  constexpr index_t kUsers = 90;
  constexpr index_t kItems = 160;
  Rng rng(seed);
  Coo coo(kUsers, kItems);
  for (index_t u = 0; u < kUsers; ++u) {
    if (u % 7 == 3) continue;
    const double density = u % 11 == 1 ? 0.8 : 0.06;
    for (index_t i = 0; i < kItems - 10; ++i) {
      if (rng.uniform() < density) {
        coo.add(u, i, static_cast<real>(1.0 + rng.bounded(8)));
      }
    }
  }
  return coo_to_csr(coo);
}

TEST(ImplicitAls, LossDecreasesOverIterations) {
  const Csr train = testing::random_csr(80, 60, 0.08, 70);
  devsim::Device device(devsim::k20c());
  DeviceImplicitAls solver(train, small_opts(), device);
  double prev = -1;
  for (int it = 0; it < 4; ++it) {
    solver.run_iteration();
    const double loss =
        implicit_loss(train, solver.x(), solver.y(), small_opts());
    if (prev >= 0) {
      EXPECT_LE(loss, prev * (1 + 1e-5)) << it;
    }
    prev = loss;
  }
}

TEST(ImplicitAls, PredictsHigherScoresForObservedItems) {
  const Csr train = block_interactions(100, 60, 3);
  const Factors r = train_implicit(train, small_opts());
  // Mean predicted preference on observed cells must exceed unobserved.
  double observed = 0, unobserved = 0;
  nnz_t n_obs = 0, n_un = 0;
  for (index_t u = 0; u < train.rows(); ++u) {
    auto cols = train.row_cols(u);
    std::size_t p = 0;
    for (index_t i = 0; i < train.cols(); ++i) {
      const double pred = vdot(r.x.row(u).data(), r.y.row(i).data(),
                               static_cast<std::size_t>(small_opts().k));
      while (p < cols.size() && cols[p] < i) ++p;
      if (p < cols.size() && cols[p] == i) {
        observed += pred;
        ++n_obs;
      } else {
        unobserved += pred;
        ++n_un;
      }
    }
  }
  EXPECT_GT(observed / static_cast<double>(n_obs),
            unobserved / static_cast<double>(n_un) + 0.2);
}

TEST(ImplicitAls, RecoversBlockStructureInRanking) {
  const Csr all = block_interactions(120, 80, 5);
  // Hold out one interaction per user.
  auto [train_coo, test_coo] = split_leave_one_out(csr_to_coo(all), 11);
  const Csr train = coo_to_csr(train_coo);
  Coo test_resized(train.rows(), train.cols());
  for (const auto& t : test_coo.entries()) test_resized.add(t.row, t.col, t.value);
  const Csr test = coo_to_csr(test_resized);

  const Factors r = train_implicit(train, small_opts());
  const RankingMetrics m = evaluate_ranking(train, test, r.x, r.y, 10);
  EXPECT_GT(m.evaluated_users, 0);
  // Items come from the user's own block: ranking must beat chance by far.
  EXPECT_GT(m.auc, 0.7);
  EXPECT_GT(m.hit_rate, 0.2);
}

TEST(ImplicitAls, DeterministicInSeed) {
  const Csr train = testing::random_csr(40, 30, 0.1, 71);
  const Factors a = train_implicit(train, small_opts());
  const Factors b = train_implicit(train, small_opts());
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST(ImplicitAls, AlphaZeroStillSolves) {
  const Csr train = testing::random_csr(30, 30, 0.15, 72);
  ImplicitOptions o = small_opts();
  o.alpha = 0.0f;  // all confidences equal 1
  const Factors r = train_implicit(train, o);
  EXPECT_GT(r.x.frob2(), 0.0);
}

TEST(ImplicitAls, InvalidOptionsRejected) {
  EXPECT_NO_THROW(validate(small_opts()));
  ImplicitOptions bad = small_opts();
  bad.k = 0;
  EXPECT_THROW(validate(bad), Error);
  bad = small_opts();
  bad.alpha = -1.0f;
  EXPECT_THROW(validate(bad), Error);
}

TEST(ImplicitAls, EmptyRowsGetZeroNormNearFactors) {
  Coo coo(6, 6);
  coo.add(0, 1, 2.0f);
  coo.add(0, 3, 1.0f);
  const Csr train = coo_to_csr(coo);
  const Factors r = train_implicit(train, small_opts());
  // A user with no interactions is pulled to (near) zero by the implicit
  // zeros: far smaller norm than an active user.
  const double active = vnorm2(r.x.row(0).data(), 6);
  const double empty = vnorm2(r.x.row(3).data(), 6);
  EXPECT_LT(empty, active * 0.5 + 1e-9);
}

TEST(DeviceImplicit, MatchesHostImplicitBitwise) {
  const Csr train = ragged_interactions(270);
  const Csr train_t = transpose(train);
  index_t empty = 0, longest = 0;
  for (index_t u = 0; u < train.rows(); ++u) {
    if (train.row_nnz(u) == 0) ++empty;
    longest = std::max(longest, train.row_nnz(u));
  }
  ASSERT_GT(empty, 0);
  ASSERT_GT(longest, 64);
  ASSERT_EQ(train_t.row_nnz(train.cols() - 1), 0);
  for (const int k : {5, 10}) {
    for (const real alpha : {0.0f, 15.0f}) {
      ImplicitOptions o = opts();
      o.k = k;
      o.alpha = alpha;
      const Factors host = oracle_implicit_als(train, o);
      for (const char* dev : {"gpu", "cpu"}) {
        SCOPED_TRACE(std::string(dev) + " k=" + std::to_string(k) +
                     " alpha=" + std::to_string(alpha));
        const Factors device = train_implicit(train, o, dev);
        EXPECT_EQ(device.x, host.x);
        EXPECT_EQ(device.y, host.y);
      }
    }
  }
}

TEST(DeviceImplicit, LossDecreases) {
  const Csr train = testing::random_csr(60, 40, 0.12, 271);
  devsim::Device device(devsim::k20c());
  DeviceImplicitAls solver(train, opts(), device);
  double prev = -1;
  for (int it = 0; it < 4; ++it) {
    solver.run_iteration();
    const double loss = implicit_loss(train, solver.x(), solver.y(), opts());
    if (prev >= 0) {
      EXPECT_LE(loss, prev * (1 + 1e-5)) << it;
    }
    prev = loss;
  }
}

TEST(DeviceImplicit, ModeledTimeTracked) {
  const Csr train = testing::random_csr(50, 40, 0.15, 272);
  devsim::Device device(devsim::k20c());
  DeviceImplicitAls solver(train, opts(), device);
  solver.functional = false;
  solver.run_iteration();
  EXPECT_GT(solver.modeled_seconds(), 0.0);
  const Matrix x0(train.rows(), opts().k, real{0});
  EXPECT_EQ(solver.x(), x0);  // accounting only
}

TEST(DeviceImplicit, CostlierThanExplicitPerIteration) {
  // The implicit rows run the explicit batched kernel plus the gram
  // broadcast: per iteration they must not be cheaper.
  const Csr train = testing::random_csr(80, 60, 0.1, 273);
  ImplicitOptions io = opts();
  io.iterations = 1;
  devsim::Device d1(devsim::k20c());
  DeviceImplicitAls implicit_solver(train, io, d1);
  implicit_solver.functional = false;
  const double implicit_time = implicit_solver.run();

  AlsOptions ao;
  ao.k = io.k;
  ao.iterations = 1;
  ao.functional = false;
  devsim::Device d2(devsim::k20c());
  AlsSolver explicit_solver(train, ao, AlsVariant::batching_only(), d2);
  const double explicit_time = explicit_solver.run({}).modeled_seconds;
  EXPECT_GE(implicit_time, explicit_time * 0.5);
}

TEST(DeviceImplicit, InvalidOptionsRejected) {
  const Csr train = testing::random_csr(10, 10, 0.3, 274);
  devsim::Device device(devsim::k20c());
  ImplicitOptions bad = opts();
  bad.k = 0;
  EXPECT_THROW(DeviceImplicitAls(train, bad, device), Error);
  bad = opts();
  bad.alpha = -1.0f;
  EXPECT_THROW(DeviceImplicitAls(train, bad, device), Error);
}

}  // namespace
}  // namespace alsmf
