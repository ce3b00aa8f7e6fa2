// Device kernels for the ALS factor update, in the two mappings the paper
// studies:
//
//  * flat      — the SAC'15 baseline: one work-item per row (Algorithm 2).
//  * batched   — the paper's thread batching (§III-B): one work-group per
//                row, with the three architecture-specific optimizations
//                (registers / local memory / vectors) individually
//                toggleable — the 8 code variants of §III-D.
//
// Every variant performs bit-identical arithmetic (see row_solve.hpp); the
// variants differ in the *device activity* they record, which is what the
// cost model prices. The recording formulas are documented inline and
// verified against hand counts in tests/devsim/.
//
// The host arithmetic and the accounting are separate. Every variant sums
// each row's normal equations through the one assemble_normal_equations
// call (row_solve.hpp), while the S1/S2/S3 counters come only from the
// record_s* formulas, which read row lengths and the variant, never how the
// host blocks its loops. The local-memory variant allocates and prices its
// staging tile and declares every staging access to the checker, but reads
// the values straight from src; the generated OpenCL moves the data.
// Per-rating declarations run in checked launches only: unchecked, they
// would only repeat bounds checks that the Csr invariant (in-range column
// indices) and launch_update's r->cols() == src->rows() check guarantee.
#pragma once

#include <string>

#include "als/options.hpp"
#include "als/row_solver.hpp"
#include "devsim/device.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace alsmf {

/// Arguments of one half-update (updating `dst` rows from fixed `src`).
/// When updating Y, pass the CSR of Rᵀ as `r`.
struct UpdateArgs {
  const Csr* r = nullptr;      ///< rows correspond to dst rows
  const Matrix* src = nullptr; ///< fixed factor, r->cols() × k
  Matrix* dst = nullptr;       ///< updated factor, r->rows() × k
  real lambda = 0.1f;
  /// ALS-WR: use λ·|Ω_u| instead of λ on each row's diagonal.
  bool weighted_lambda = false;
  /// Local-memory staging tile rows (local variant). 0 = auto: sized to
  /// keep several work-groups resident per compute unit (occupancy).
  int tile_rows = 0;
  int k = 10;
  AlsVariant variant;
  LinearSolverKind solver = LinearSolverKind::kCholesky;
  /// S3 row-solver strategy. nullptr = the exact solve selected by
  /// `solver` (the pre-strategy behavior); launch_update supplies a
  /// transient exact strategy in that case. The pointee is borrowed and
  /// must outlive the launch — strategies are stateless and shared safely
  /// across concurrent groups (scratch is per-group).
  const RowSolver* row_solver = nullptr;
};

/// Launches the half-update on `device`. `kernel_name` keys the device's
/// per-section statistics ("update_x/S1" etc.). For the batched mapping,
/// `num_groups` work-groups of `group_size` lanes stride over the rows (the
/// paper's 8192 × 32 configuration); the flat mapping derives its group
/// count from the row count. `validate` runs the launch in checked
/// execution (shadow-memory analysis; see docs/kernel-checking.md) and
/// requires `functional`. Returns the launch record.
devsim::LaunchResult launch_update(devsim::Device& device,
                                   const std::string& kernel_name,
                                   const UpdateArgs& args,
                                   std::size_t num_groups, int group_size,
                                   bool functional, bool validate = false);

}  // namespace alsmf
