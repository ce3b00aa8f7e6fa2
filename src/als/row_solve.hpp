// The single-row ALS update shared by every code variant: assemble the
// normal equations  (Σ_{i∈Ω_u} y_i y_iᵀ + λI) x_u = Σ_{i∈Ω_u} r_ui y_i
// and solve the k×k system. Implicit ALS (Hu, Koren & Volinsky) solves the
// same system from a prefix: (G + Σ (c_ui − 1) y_i y_iᵀ) x_u = Σ c_ui y_i,
// with the Gramian G = YᵀY + λI shared by every row of a half-update.
//
// Every assembly of these equations sums under one order contract
// (linalg/dense.hpp): each element of the system adds its products over the
// row's ratings in storage order, each product rounded once and added once.
// The explicit system starts from zero and sums in one of two forms:
//  * The direct form, accumulate_gram, multiplies y_i[a]·y_i[b] as it adds
//    it. Fold-in, serving, the guards, the cuMF-like baseline and the
//    tests' serial oracle use it.
//  * The table form sums a ProductTable, where each source row's products
//    were multiplied once per half-update, in register sweeps over whole
//    vectors of each gathered table row that carry the rhs too
//    (accumulate_products). The batched and flat kernels use it where the
//    table pays (kernels.hpp).
// A product rounds the same whether it is formed inside the sum or before
// it, so the two forms agree bitwise. The implicit system starts from G and
// sums directly, with accumulate_gram's matrix weight c − 1 scaling the
// column-side element of each product: y_i[a]·((c − 1)·y_i[b]). It never
// sums a table, whose pre-formed y_i[a]·y_i[b] would round a different
// product. The build passes -ffp-contract=off so that no compiler fuses a
// multiply into its add. By the same contract a staged tile would sum to
// the same bits as the gathered rows, which is why the local-memory kernel
// declares its staging to the checker instead of copying, and unchecked
// launches skip the declarations (kernels.hpp).
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

/// Fills smat (k×k row-major) with gram + Σ (c_p − 1)·y_p y_pᵀ and svec (k)
/// with Σ c_p·y_p, over the stored confidences (cols, confs) of one row.
/// `gram` (k×k) is the half-update's G = yᵀy + λI (gram_full), so λ is
/// added once there and not here. Bitwise the one-rating-at-a-time loop
/// that adds ((c_p − 1)·y_p[i])·y_p[j] to every element of a copy of G
/// (dense.hpp, matrix weights).
void assemble_implicit_equations(std::span<const index_t> cols,
                                 std::span<const real> confs, const Matrix& y,
                                 const real* gram, int k, real* smat,
                                 real* svec);

/// Solves smat · x = svec in place (svec becomes x_u). Falls back to zero
/// on a numerically failed factorization (cannot happen for λ > 0, checked
/// in tests). Returns false on failure.
bool solve_normal_equations(real* smat, real* svec, int k,
                            LinearSolverKind solver);

}  // namespace alsmf
