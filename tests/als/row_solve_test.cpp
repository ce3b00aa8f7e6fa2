#include "als/row_solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "linalg/vecops.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

TEST(RowSolve, AssemblesKnownSystem) {
  // y rows: [1,0], [0,2]; ratings 3 (col 0) and 4 (col 1); lambda = 0.5.
  Matrix y(2, 2);
  y(0, 0) = 1;
  y(1, 1) = 2;
  std::vector<index_t> cols = {0, 1};
  std::vector<real> vals = {3, 4};
  std::vector<real> smat(4), svec(2);
  assemble_normal_equations(cols, vals, y, 0.5f, 2, smat.data(), svec.data());
  // smat = [[1,0],[0,4]] + 0.5 I ; svec = [3, 8].
  EXPECT_FLOAT_EQ(smat[0], 1.5f);
  EXPECT_FLOAT_EQ(smat[1], 0.0f);
  EXPECT_FLOAT_EQ(smat[2], 0.0f);
  EXPECT_FLOAT_EQ(smat[3], 4.5f);
  EXPECT_FLOAT_EQ(svec[0], 3.0f);
  EXPECT_FLOAT_EQ(svec[1], 8.0f);
}

TEST(RowSolve, StagedMatchesDirectBitwise) {
  const int k = 7;
  Matrix y(30, k);
  Rng rng(5);
  y.fill_uniform(rng, -1, 1);
  std::vector<index_t> cols = {2, 5, 9, 14, 28};
  std::vector<real> vals = {1, 2, 3, 4, 5};

  std::vector<real> smat_a(static_cast<std::size_t>(k) * k), svec_a(k);
  assemble_normal_equations(cols, vals, y, 0.1f, k, smat_a.data(),
                            svec_a.data());

  // Build the gathered tile and accumulate it as the staged kernel does:
  // one contiguous block per staged chunk.
  std::vector<real> tile;
  for (auto c : cols) {
    auto row = y.row(c);
    tile.insert(tile.end(), row.begin(), row.end());
  }
  std::vector<real> smat_b(static_cast<std::size_t>(k) * k), svec_b(k);
  accumulate_gram(tile.data(), 2, vals.data(), k, smat_b.data(),
                  svec_b.data());
  accumulate_gram(tile.data() + 2 * k, vals.size() - 2, vals.data() + 2, k,
                  smat_b.data(), svec_b.data());
  finalize_gram(0.1f, k, smat_b.data());

  EXPECT_EQ(smat_a, smat_b);  // bitwise: identical accumulation order
  EXPECT_EQ(svec_a, svec_b);
}

std::vector<std::uint32_t> bits(const std::vector<real>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(real));
  return out;
}

/// Random value of either sign spanning ~12 decades, so any reassociation
/// of a sum changes its rounding.
real mixed(Rng& rng) {
  const double mag = std::ldexp(rng.uniform(1.0, 2.0),
                                static_cast<int>(rng.uniform(-20.0, 20.0)));
  return static_cast<real>(rng.uniform() < 0.5 ? -mag : mag);
}

TEST(RowSolve, BlockedAccumulateMatchesRowByRowBitwise) {
  Rng rng(17);
  for (const int k : {1, 2, 3, 4, 5, 7, 8, 9, 10, 13, 16, 17, 32, 100}) {
    const auto ku = static_cast<std::size_t>(k);
    for (const std::size_t n : {0u, 1u, 3u, 63u, 64u, 65u, 257u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      // Rows gathered from a pool (with repeats), plus their weights.
      Matrix pool(40, static_cast<index_t>(k));
      for (std::size_t e = 0; e < pool.size(); ++e) pool.data()[e] = mixed(rng);
      std::vector<const real*> rows(n);
      std::vector<real> tile(n * ku), w(n);
      for (std::size_t p = 0; p < n; ++p) {
        rows[p] = pool.row(static_cast<index_t>(rng.bounded(40))).data();
        std::copy(rows[p], rows[p] + ku, tile.begin() + static_cast<std::ptrdiff_t>(p * ku));
        w[p] = mixed(rng);
      }
      // Nonzero starting sums: the accumulator adds onto what is stored.
      // The lower triangle holds a sentinel it must leave alone.
      std::vector<real> g0(ku * ku), r0(ku);
      for (std::size_t i = 0; i < ku; ++i) {
        r0[i] = mixed(rng);
        for (std::size_t j = 0; j < ku; ++j) {
          g0[i * ku + j] = j >= i ? mixed(rng) : real{7};
        }
      }

      // The oracle: one rating at a time, in storage order.
      std::vector<real> g_ref = g0, r_ref = r0;
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t i = 0; i < ku; ++i) {
          const real yi = rows[p][i];
          for (std::size_t j = i; j < ku; ++j) g_ref[i * ku + j] += yi * rows[p][j];
          r_ref[i] += w[p] * yi;
        }
      }

      std::vector<real> g = g0, r = r0;
      accumulate_gram(rows, w.data(), k, g.data(), r.data());
      EXPECT_EQ(bits(g), bits(g_ref)) << "gathered, one call";
      EXPECT_EQ(bits(r), bits(r_ref)) << "gathered, one call";

      g = g0;
      r = r0;
      accumulate_gram(tile.data(), n, w.data(), k, g.data(), r.data());
      EXPECT_EQ(bits(g), bits(g_ref)) << "contiguous, one call";
      EXPECT_EQ(bits(r), bits(r_ref)) << "contiguous, one call";

      // Split into calls of random length: the split must not show.
      g = g0;
      r = r0;
      for (std::size_t p0 = 0; p0 < n;) {
        const std::size_t len =
            std::min(n - p0, 1 + static_cast<std::size_t>(rng.bounded(70)));
        accumulate_gram(std::span<const real* const>(rows).subspan(p0, len),
                        w.data() + p0, k, g.data(), r.data());
        p0 += len;
      }
      EXPECT_EQ(bits(g), bits(g_ref)) << "gathered, split";
      EXPECT_EQ(bits(r), bits(r_ref)) << "gathered, split";

      // No rhs: the Gram part alone is unchanged.
      g = g0;
      accumulate_gram(rows, nullptr, k, g.data(), nullptr);
      EXPECT_EQ(bits(g), bits(g_ref)) << "no rhs";

      // Matrix weights m_p = c_p − 1 with c_p = 1 + α·w_p, as implicit rows
      // pass them (α = 0 makes every m_p zero). The oracle is the
      // full-square loop implicit rows once ran, from a symmetric start:
      // element (i, j) adds (m_p·y_p[i])·y_p[j]. The accumulator's upper
      // element (i, j ≥ i) must equal that loop's lower element (j, i).
      for (const real alpha : {0.0f, 0.37f, 40.0f}) {
        SCOPED_TRACE("alpha=" + std::to_string(alpha));
        std::vector<real> m(n);
        for (std::size_t p = 0; p < n; ++p) {
          m[p] = (real{1} + alpha * w[p]) - real{1};
        }
        std::vector<real> full(ku * ku), r_full = r0;
        for (std::size_t i = 0; i < ku; ++i) {
          for (std::size_t j = 0; j < ku; ++j) {
            full[i * ku + j] = g0[std::min(i, j) * ku + std::max(i, j)];
          }
        }
        for (std::size_t p = 0; p < n; ++p) {
          for (std::size_t i = 0; i < ku; ++i) {
            const real ci = m[p] * rows[p][i];
            for (std::size_t j = 0; j < ku; ++j) {
              full[i * ku + j] += ci * rows[p][j];
            }
            r_full[i] += w[p] * rows[p][i];
          }
        }
        std::vector<real> expect = g0;
        for (std::size_t i = 0; i < ku; ++i) {
          for (std::size_t j = i; j < ku; ++j) {
            expect[i * ku + j] = full[j * ku + i];
          }
        }
        g = g0;
        r = r0;
        accumulate_gram(rows, w.data(), m.data(), k, g.data(), r.data());
        EXPECT_EQ(bits(g), bits(expect)) << "matrix weights";
        EXPECT_EQ(bits(r), bits(r_full)) << "matrix weights";
      }
    }
  }
}

TEST(RowSolve, ProductTableMatchesAccumulateGramBitwise) {
  // The table form adds products that the table multiplied once; the
  // direct form multiplies each as it adds it. Values spanning ~12 decades
  // make any reordering, or any product rounded twice, change the bits.
  // k = 1…40, 64 and 100 give every shape of register sweep: products
  // only, a last sweep that also carries y, and sweeps of y alone.
  Rng rng(29);
  ProductTable table;  // rebuilt for every k into the same storage
  std::vector<int> ks(40);
  for (int k = 1; k <= 40; ++k) ks[static_cast<std::size_t>(k - 1)] = k;
  ks.push_back(64);
  ks.push_back(100);
  for (const int k : ks) {
    Matrix y(90, static_cast<index_t>(k));
    for (std::size_t e = 0; e < y.size(); ++e) y.data()[e] = mixed(rng);
    table.build(y);
    ASSERT_EQ(table.k(), k);
    ASSERT_EQ(table.rows(), y.rows());
    const auto kk = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
    for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 300u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      // Ratings of one row, with repeated columns as a gather may see.
      std::vector<index_t> cols(n);
      std::vector<real> vals(n);
      for (std::size_t p = 0; p < n; ++p) {
        cols[p] = static_cast<index_t>(rng.bounded(90));
        vals[p] = mixed(rng);
      }
      // Stale values in the outputs must not leak into either result.
      std::vector<real> smat_direct(kk, real{7}), svec_direct(k, real{7});
      std::vector<real> smat_table(kk, real{-3}), svec_table(k, real{-3});
      assemble_normal_equations(cols, vals, y, 0.25f, k, smat_direct.data(),
                                svec_direct.data());
      assemble_normal_equations(cols, vals, table, 0.25f, k,
                                smat_table.data(), svec_table.data());
      EXPECT_EQ(bits(smat_table), bits(smat_direct));
      EXPECT_EQ(bits(svec_table), bits(svec_direct));
    }
  }
}

TEST(RowSolve, SolveRecoversExactRow) {
  // If ratings are exactly y_i . x_true, the solve must recover x_true
  // (up to the lambda-induced shrinkage being small).
  const int k = 3;
  Matrix y(40, k);
  Rng rng(9);
  y.fill_uniform(rng, -1, 1);
  const std::vector<real> x_true = {0.5f, -1.0f, 2.0f};
  std::vector<index_t> cols;
  std::vector<real> vals;
  for (index_t i = 0; i < 40; ++i) {
    cols.push_back(i);
    vals.push_back(vdot(y.row(i).data(), x_true.data(), k));
  }
  std::vector<real> smat(static_cast<std::size_t>(k) * k), svec(k);
  assemble_normal_equations(cols, vals, y, 1e-5f, k, smat.data(), svec.data());
  ASSERT_TRUE(solve_normal_equations(smat.data(), svec.data(), k,
                                     LinearSolverKind::kCholesky));
  for (int f = 0; f < k; ++f) EXPECT_NEAR(svec[static_cast<std::size_t>(f)], x_true[static_cast<std::size_t>(f)], 1e-3);
}

TEST(RowSolve, CholeskyAndLuAgree) {
  const int k = 6;
  Matrix y(25, k);
  Rng rng(4);
  y.fill_uniform(rng, -1, 1);
  std::vector<index_t> cols;
  std::vector<real> vals;
  for (index_t i = 0; i < 25; i += 2) {
    cols.push_back(i);
    vals.push_back(static_cast<real>(rng.uniform(1, 5)));
  }
  std::vector<real> smat1(static_cast<std::size_t>(k) * k), svec1(k);
  assemble_normal_equations(cols, vals, y, 0.1f, k, smat1.data(), svec1.data());
  auto smat2 = smat1;
  auto svec2 = svec1;
  ASSERT_TRUE(solve_normal_equations(smat1.data(), svec1.data(), k,
                                     LinearSolverKind::kCholesky));
  ASSERT_TRUE(solve_normal_equations(smat2.data(), svec2.data(), k,
                                     LinearSolverKind::kLu));
  for (int f = 0; f < k; ++f) EXPECT_NEAR(svec1[static_cast<std::size_t>(f)], svec2[static_cast<std::size_t>(f)], 1e-3);
}

TEST(RowSolve, LambdaAlwaysMakesSystemSolvable) {
  // Even with a single rating (rank-1 gram), lambda > 0 keeps smat SPD.
  const int k = 5;
  Matrix y(3, k);
  Rng rng(2);
  y.fill_uniform(rng, -1, 1);
  std::vector<index_t> cols = {1};
  std::vector<real> vals = {4.0f};
  std::vector<real> smat(static_cast<std::size_t>(k) * k), svec(k);
  assemble_normal_equations(cols, vals, y, 0.1f, k, smat.data(), svec.data());
  EXPECT_TRUE(solve_normal_equations(smat.data(), svec.data(), k,
                                     LinearSolverKind::kCholesky));
}

TEST(RowSolve, FailedSolveZeroFills) {
  const int k = 2;
  std::vector<real> smat = {0, 0, 0, 0};  // not SPD
  std::vector<real> svec = {1, 2};
  EXPECT_FALSE(solve_normal_equations(smat.data(), svec.data(), k,
                                      LinearSolverKind::kCholesky));
  EXPECT_FLOAT_EQ(svec[0], 0.0f);
  EXPECT_FLOAT_EQ(svec[1], 0.0f);
}

}  // namespace
}  // namespace alsmf
