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
// each row's normal equations through assemble_normal_equations
// (row_solve.hpp; implicit rows, which start from a Gramian prefix, through
// assemble_implicit_equations), while the S1/S2/S3 counters come only from
// the record_s* formulas, which read row lengths and the variant, never how
// the host blocks its loops. The local-memory variant allocates and prices its
// staging tile and declares every staging access to the checker, but reads
// the values straight from src; the generated OpenCL moves the data.
// Per-rating declarations run in checked launches only: unchecked, they
// would only repeat bounds checks that the Csr invariant (in-range column
// indices) and launch_update's r->cols() == src->rows() check guarantee.
//
// Where product_table_pays, the batched and flat kernels sum a
// ProductTable of src (each src row's products, formed once per
// half-update) instead of multiplying per rating. The table is host
// arithmetic only: the kernels still price and declare the src gathers
// that the device kernel makes, so counters, modeled seconds and checker
// findings are those of the direct path, and so are the factor bits.
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
  /// S3 row-solver strategy (make_row_solver). nullptr = the paper's exact
  /// Cholesky solve. The pointee is borrowed and must outlive the launch —
  /// strategies are stateless and shared safely across concurrent groups
  /// (scratch is per-group).
  const RowSolver* row_solver = nullptr;
  /// Product table of `src` (product_table_for). nullptr = launch_update
  /// builds a transient one when product_table_pays, else the kernels
  /// multiply directly. Borrowed like row_solver; it must have been built
  /// from `src` as it stands for this launch.
  const ProductTable* products = nullptr;
  /// Implicit ALS's Gramian prefix G = srcᵀsrc + λI (k×k, row-major, from
  /// gram_full with λ already in it); borrowed like row_solver. When set,
  /// the values of `r` are confidences c = 1 + α·r and every row solves
  /// (G + Σ (c_p − 1) y_p y_pᵀ) x = Σ c_p y_p (assemble_implicit_equations):
  /// `lambda` and `weighted_lambda` are unused, no product table is summed,
  /// and the variant must be thread-batched. The batched kernel prices the
  /// row like an explicit one plus a k×k broadcast of G.
  const real* gram = nullptr;
};

/// The rule for summing a product table instead of multiplying. It moves
/// only wall time, never bits (docs/solvers.md has the sweep behind it):
/// the table wins at every measured k down to 1 while it fits in
/// kProductTableBudgetBytes (one core's L2 on the measured machine); past
/// that its gathers come from the shared cache and cost more than the
/// multiplies they replace.
inline constexpr std::size_t kProductTableBudgetBytes = std::size_t{2} << 20;

/// Whether a half-update over a src of `src_rows` rows of k reals should
/// sum a product table.
bool product_table_pays(int k, index_t src_rows);

/// Builds `table` from `src` and returns it when a functional half-update
/// over `src` should sum one (product_table_pays); null otherwise. Trainers
/// call it once per half-update with a table they keep, and share the
/// result across every launch of that half-update.
const ProductTable* product_table_for(const Matrix& src, bool functional,
                                      ProductTable& table);

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
