// The single-row ALS update shared by every code variant: assemble the
// normal equations  (Σ_{i∈Ω_u} y_i y_iᵀ + λI) x_u = Σ_{i∈Ω_u} r_ui y_i
// and solve the k×k system.
//
// Every assembly of these equations sums in one of two forms under one
// order contract (linalg/dense.hpp): each element of the system adds its
// products over the row's ratings in storage order, each product rounded
// once and added once, starting from zero.
//  * The direct form, accumulate_gram, multiplies y_i[a]·y_i[b] as it adds
//    it. Fold-in, serving, the guards, the reference and the cuMF-like
//    baseline use it.
//  * The table form sums a ProductTable, where each source row's products
//    were multiplied once per half-update. The batched and flat kernels
//    use it where the table pays (kernels.hpp).
// A product rounds the same whether it is formed inside the sum or before
// it, so the two forms agree bitwise; the build passes -ffp-contract=off so
// that no compiler fuses a multiply into its add. By the same contract a
// staged tile would sum to the same bits as the gathered rows, which is why
// the local-memory kernel declares its staging to the checker instead of
// copying, and unchecked launches skip the declarations (kernels.hpp).
// The variants differ only in the device activity they record, and that
// accounting never depends on how the host arithmetic is blocked.
#pragma once

#include <span>

#include "als/options.hpp"
#include "linalg/dense.hpp"

namespace alsmf {

/// Fills smat (k×k row-major) with Σ y_i y_iᵀ + λI and svec (k) with
/// Σ r_ui y_i, over the stored entries (cols, vals) of one row.
void assemble_normal_equations(std::span<const index_t> cols,
                               std::span<const real> vals, const Matrix& y,
                               real lambda, int k, real* smat, real* svec);

/// Same system, summed from `products` (a table of the rows of y, with
/// products.k() == k) instead of multiplying: bitwise the result of the
/// overload above over the matrix the table was built from.
void assemble_normal_equations(std::span<const index_t> cols,
                               std::span<const real> vals,
                               const ProductTable& products, real lambda,
                               int k, real* smat, real* svec);

/// Solves smat · x = svec in place (svec becomes x_u). Falls back to zero
/// on a numerically failed factorization (cannot happen for λ > 0, checked
/// in tests). Returns false on failure.
bool solve_normal_equations(real* smat, real* svec, int k,
                            LinearSolverKind solver);

}  // namespace alsmf
