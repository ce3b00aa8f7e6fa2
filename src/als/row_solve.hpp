// The single-row ALS update shared by every code variant: assemble the
// normal equations  (Σ_{i∈Ω_u} y_i y_iᵀ + λI) x_u = Σ_{i∈Ω_u} r_ui y_i
// and solve the k×k system.
//
// Every assembly of these equations — the batched (staged or not), flat
// and SELL kernels, the reference, the guards, fold-in, serving and the
// cuMF-like baseline — goes through the one register-blocked accumulator,
// accumulate_gram (linalg/dense.hpp). Its order contract: each element of
// the system adds its products over the row's ratings in storage order,
// one multiply and one add at a time, starting from zero. So a staged
// tile would sum to the same bits as the gathered rows, which is why the
// local-memory kernel declares its staging to the checker instead of
// copying, and unchecked launches skip the declarations (kernels.hpp). The
// build passes -ffp-contract=off so that no compiler fuses the multiply and
// the add into an FMA.
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

/// Solves smat · x = svec in place (svec becomes x_u). Falls back to zero
/// on a numerically failed factorization (cannot happen for λ > 0, checked
/// in tests). Returns false on failure.
bool solve_normal_equations(real* smat, real* svec, int k,
                            LinearSolverKind solver);

}  // namespace alsmf
