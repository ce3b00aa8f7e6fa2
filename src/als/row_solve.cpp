#include "als/row_solve.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "robust/fault_injection.hpp"

namespace alsmf {

void assemble_normal_equations(std::span<const index_t> cols,
                               std::span<const real> vals, const Matrix& y,
                               real lambda, int k, real* smat, real* svec) {
  ALSMF_CHECK(cols.size() == vals.size());
  std::fill(smat, smat + static_cast<std::size_t>(k) * k, real{0});
  std::fill(svec, svec + k, real{0});
  std::array<const real*, kGramBlockRows> rows{};
  for (std::size_t base = 0; base < cols.size(); base += rows.size()) {
    const std::size_t n = std::min(rows.size(), cols.size() - base);
    for (std::size_t p = 0; p < n; ++p) rows[p] = y.row(cols[base + p]).data();
    accumulate_gram({rows.data(), n}, vals.data() + base, k, smat, svec);
  }
  finalize_gram(lambda, k, smat);
}

void assemble_normal_equations(std::span<const index_t> cols,
                               std::span<const real> vals,
                               const ProductTable& products, real lambda,
                               int k, real* smat, real* svec) {
  ALSMF_CHECK(cols.size() == vals.size());
  ALSMF_CHECK(products.k() == k);
  // One accumulator laid out like a table row holds every sum across the
  // blocks: the front of smat, which is at least that long from k = 4 on,
  // else a stack buffer (stride(3) = 12).
  const std::size_t stride = ProductTable::stride(k);
  std::array<real, 12> small{};
  real* acc = stride <= static_cast<std::size_t>(k) * k ? smat : small.data();
  ALSMF_CHECK(stride <= small.size() || acc == smat);
  std::fill(acc, acc + stride, real{0});
  std::array<const real*, kGramBlockRows> rows{};
  for (std::size_t base = 0; base < cols.size(); base += rows.size()) {
    const std::size_t n = std::min(rows.size(), cols.size() - base);
    for (std::size_t p = 0; p < n; ++p) rows[p] = products.row(cols[base + p]);
    accumulate_products({rows.data(), n}, vals.data() + base, products, acc);
  }
  // The rhs leaves before unpacking overwrites it.
  std::copy_n(acc + products.y_offset(), k, svec);
  if (acc != smat) std::copy_n(acc, ProductTable::products(k), smat);
  unpack_products(k, smat);
  finalize_gram(lambda, k, smat);
}

void assemble_implicit_equations(std::span<const index_t> cols,
                                 std::span<const real> confs, const Matrix& y,
                                 const real* gram, int k, real* smat,
                                 real* svec) {
  ALSMF_CHECK(cols.size() == confs.size());
  std::copy(gram, gram + static_cast<std::size_t>(k) * k, smat);
  std::fill(svec, svec + k, real{0});
  std::array<const real*, kGramBlockRows> rows{};
  std::array<real, kGramBlockRows> excess{};
  for (std::size_t base = 0; base < cols.size(); base += rows.size()) {
    const std::size_t n = std::min(rows.size(), cols.size() - base);
    for (std::size_t p = 0; p < n; ++p) {
      rows[p] = y.row(cols[base + p]).data();
      excess[p] = confs[base + p] - real{1};
    }
    accumulate_gram({rows.data(), n}, confs.data() + base, excess.data(), k,
                    smat, svec);
  }
  finalize_gram(real{0}, k, smat);
}

bool solve_normal_equations(real* smat, real* svec, int k,
                            LinearSolverKind solver) {
  if (robust::fault_at(robust::FaultSite::kSolve)) {
    // Model a numerically blown-up solve: the caller sees NaN factors, which
    // the post-update divergence guard must catch and repair.
    std::fill(svec, svec + k, std::numeric_limits<real>::quiet_NaN());
    return true;
  }
  const bool ok = solver == LinearSolverKind::kCholesky
                      ? cholesky_solve(smat, k, svec)
                      : lu_solve(smat, k, svec);
  if (!ok) std::fill(svec, svec + k, real{0});
  return ok;
}

}  // namespace alsmf
