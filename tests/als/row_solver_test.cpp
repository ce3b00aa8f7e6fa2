// Property tests for the pluggable S3 row-solver strategies
// (docs/solvers.md): subspace d = k exactness and sweep convergence, the
// exact strategy's bitwise delegation, and parse round-trips.
#include "als/row_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "als/metrics.hpp"
#include "als/row_solve.hpp"
#include "common/error.hpp"
#include "als/solver.hpp"
#include "data/synthetic.hpp"
#include "linalg/cholesky.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

/// A random SPD k×k normal-equations system (smat, svec) with the exact
/// accumulation order of the real assembly path.
struct System {
  std::vector<real> smat, svec;
  int k;
};

System random_system(int k, std::uint64_t seed, real lambda = 0.1f) {
  Rng rng(seed);
  Matrix y(3 * k, k);
  y.fill_uniform(rng, -1, 1);
  std::vector<index_t> cols;
  std::vector<real> vals;
  for (index_t i = 0; i < y.rows(); i += 2) {
    cols.push_back(i);
    vals.push_back(static_cast<real>(rng.uniform(1, 5)));
  }
  System s;
  s.k = k;
  s.smat.resize(static_cast<std::size_t>(k) * k);
  s.svec.resize(static_cast<std::size_t>(k));
  assemble_normal_equations(cols, vals, y, lambda, k, s.smat.data(),
                            s.svec.data());
  return s;
}

/// ‖smat·x − b‖₂ against the ORIGINAL (unfactorized) system.
double residual_norm(const System& s, const real* x) {
  double sq = 0;
  for (int i = 0; i < s.k; ++i) {
    double r = -static_cast<double>(s.svec[static_cast<std::size_t>(i)]);
    for (int j = 0; j < s.k; ++j) {
      r += static_cast<double>(
               s.smat[static_cast<std::size_t>(i) * s.k + j]) *
           static_cast<double>(x[static_cast<std::size_t>(j)]);
    }
    sq += r * r;
  }
  return std::sqrt(sq);
}

/// Runs `solver` on a copy of the system; returns the solution vector.
std::vector<real> solve_copy(const RowSolver& solver, const System& s,
                             const real* warm = nullptr) {
  auto smat = s.smat;
  auto svec = s.svec;
  std::vector<real> scratch(solver.scratch_reals(s.k));
  EXPECT_TRUE(
      solver.solve(smat.data(), svec.data(), s.k, warm, scratch.data()));
  return svec;
}

AlsOptions strategy_options(RowSolverKind kind) {
  AlsOptions o;
  o.k = 8;
  o.row_solver = kind;
  return o;
}

TEST(RowSolverParse, RoundTripsEveryKind) {
  for (RowSolverKind kind :
       {RowSolverKind::kCholesky, RowSolverKind::kSubspace}) {
    EXPECT_EQ(parse_row_solver(to_string(kind)), kind);
  }
  for (LinearSolverKind kind :
       {LinearSolverKind::kCholesky, LinearSolverKind::kLu}) {
    EXPECT_EQ(parse_linear_solver(to_string(kind)), kind);
  }
}

TEST(RowSolverParse, RejectsUnknownNamingTheValue) {
  try {
    parse_row_solver("qr");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'qr'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("subspace"), std::string::npos);
  }
  RowSolverKind out;
  EXPECT_FALSE(try_parse("", out));
  EXPECT_FALSE(try_parse("cg", out));
  LinearSolverKind lout;
  EXPECT_FALSE(try_parse("qr", lout));
}

TEST(RowSolverValidate, ActionableErrorsForStrategyKnobs) {
  AlsOptions o;
  o.subspace_block = o.k + 1;
  EXPECT_THROW(validate(o), Error);
  o = AlsOptions{};
  EXPECT_NO_THROW(validate(o));
}

TEST(RowSolver, FactoryBuildsSelectedKind) {
  for (RowSolverKind kind :
       {RowSolverKind::kCholesky, RowSolverKind::kSubspace}) {
    const auto solver = make_row_solver(strategy_options(kind));
    EXPECT_EQ(solver->kind(), kind);
    EXPECT_EQ(solver->uses_warm_start(), kind != RowSolverKind::kCholesky);
  }
  AlsOptions lu = strategy_options(RowSolverKind::kCholesky);
  lu.solver = LinearSolverKind::kLu;
  EXPECT_EQ(make_row_solver(lu)->kind(), RowSolverKind::kCholesky);
}

TEST(RowSolver, CholeskyStrategyBitwiseMatchesDirectSolve) {
  // The exact strategy must delegate: byte-for-byte the pre-strategy path.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const System s = random_system(9, seed);
    const auto strategy =
        make_row_solver(strategy_options(RowSolverKind::kCholesky));
    const std::vector<real> via_strategy = solve_copy(*strategy, s);
    auto smat = s.smat;
    auto svec = s.svec;
    ASSERT_TRUE(solve_normal_equations(smat.data(), svec.data(), s.k,
                                       LinearSolverKind::kCholesky));
    EXPECT_EQ(via_strategy, svec);  // bitwise
  }
}

TEST(RowSolver, SubspaceFullBlockEqualsExactSolve) {
  // d = k collapses the sweep to one exact solve of the whole system.
  for (std::uint64_t seed : {11u, 12u}) {
    const System s = random_system(7, seed);
    const auto exact =
        make_row_solver(strategy_options(RowSolverKind::kCholesky));
    AlsOptions o = strategy_options(RowSolverKind::kSubspace);
    o.k = s.k;
    o.subspace_block = s.k;
    const auto subspace = make_row_solver(o);
    const std::vector<real> want = solve_copy(*exact, s);
    const std::vector<real> got = solve_copy(*subspace, s);
    for (int f = 0; f < s.k; ++f) {
      EXPECT_NEAR(got[static_cast<std::size_t>(f)],
                  want[static_cast<std::size_t>(f)], 1e-4);
    }
  }
}

TEST(RowSolver, SubspaceSweepsConvergeToExactSolution) {
  // Block Gauss-Seidel on an SPD system converges: repeated warm-started
  // sweeps must drive the residual toward zero.
  const System s = random_system(8, 13);
  AlsOptions o = strategy_options(RowSolverKind::kSubspace);
  o.subspace_block = 3;
  const auto subspace = make_row_solver(o);
  std::vector<real> x(static_cast<std::size_t>(s.k), real{0});
  double prev = residual_norm(s, x.data());
  for (int sweep = 0; sweep < 12; ++sweep) {
    x = solve_copy(*subspace, s, x.data());
    const double cur = residual_norm(s, x.data());
    EXPECT_LE(cur, prev * (1 + 1e-4)) << "sweep " << sweep;
    prev = cur;
  }
  const auto exact =
      make_row_solver(strategy_options(RowSolverKind::kCholesky));
  const std::vector<real> want = solve_copy(*exact, s);
  for (int f = 0; f < s.k; ++f) {
    EXPECT_NEAR(x[static_cast<std::size_t>(f)],
                want[static_cast<std::size_t>(f)], 1e-3);
  }
}

TEST(RowSolver, FlopModelsOrderSensibly) {
  // The bench's premise: the default subspace sweep undercuts the exact
  // factorization already at k = 16, and a single block is the exact
  // factorization.
  const int k = 16;
  AlsOptions o = strategy_options(RowSolverKind::kCholesky);
  o.k = k;
  const double chol = make_row_solver(o)->modeled_flops(k);
  o.row_solver = RowSolverKind::kSubspace;
  const double sub = make_row_solver(o)->modeled_flops(k);
  EXPECT_LT(sub, chol);
  EXPECT_NEAR(subspace_solve_flops(k, k), cholesky_solve_flops(k), 1e-9);
}

TEST(SolverStrategies, IterativeStrategiesReachCholeskyQuality) {
  // End-to-end: subspace half-updates track the exact trajectory's
  // quality on a small planted problem (slightly looser RMSE allowed).
  SyntheticSpec spec;
  spec.users = 90;
  spec.items = 70;
  spec.nnz = 2500;
  spec.seed = 17;
  spec.planted_rank = 4;
  spec.noise = 0.1;
  spec.integer_ratings = false;
  const Csr train = generate_synthetic_csr(spec);

  AlsOptions o;
  o.k = 8;
  o.lambda = 0.05f;
  o.iterations = 16;
  o.num_groups = 256;

  auto final_rmse = [&](RowSolverKind kind) {
    AlsOptions so = o;
    so.row_solver = kind;
    devsim::Device device(devsim::k20c());
    AlsSolver solver(train, so, AlsVariant::batch_local_reg(), device);
    solver.run({});
    return solver.train_rmse();
  };
  const double chol = final_rmse(RowSolverKind::kCholesky);
  EXPECT_LE(final_rmse(RowSolverKind::kSubspace), chol * 1.10);
}

}  // namespace
}  // namespace alsmf
