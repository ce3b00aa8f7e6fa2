// Solver options and the paper's code-variant toggles (§III-D: 8 variants
// from individually applying/combining the three optimizations on top of
// thread batching, plus the flat SAC'15-style baseline mapping).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace alsmf {

/// Which dense solver factorizes the k×k normal equations when a row is
/// solved exactly (step S3).
enum class LinearSolverKind {
  kCholesky,  ///< the paper's choice (symmetric positive definite smat)
  kLu,        ///< ablation comparator
};

/// Row-solver strategy for the per-row normal equations (docs/solvers.md).
/// The values are mixed into trajectory_hash, so they are fixed: 1 belonged
/// to a truncated-CG strategy that is gone, and subspace keeps 2 so that
/// its checkpoints stay loadable.
enum class RowSolverKind {
  kCholesky = 0,  ///< exact solve via LinearSolverKind (the paper's S3)
  kSubspace = 2,  ///< iALS++-style block coordinate sweep: d×d subsystems
                  ///< over the k coordinates, warm-started from the
                  ///< previous factor row
};

/// Storage width of the factor/rating buffers (the mixed-precision axis,
/// docs/static-analysis.md "Precision certification"). Accumulation always
/// runs at real_t width; only what is *stored* — and therefore the off-chip
/// traffic — narrows. Every non-fp32 kernel flavor must be certified by the
/// static precision analyzer before it is usable.
enum class StoragePrecision {
  kFp32,  ///< store at real_t width (the paper's configuration)
  kFp16,  ///< IEEE binary16 storage: 11-bit significand, max 65504
  kBf16,  ///< bfloat16 storage: fp32 exponent range, 8-bit significand
};

const char* to_string(LinearSolverKind kind);
const char* to_string(RowSolverKind kind);
const char* to_string(StoragePrecision precision);

// String ↔ enum helpers shared by the CLI, JSON run events, and checkpoint
// tooling. The try_parse forms return false on unknown text; the parse_*
// forms throw an Error naming the bad value and the accepted spellings.
bool try_parse(const std::string& text, LinearSolverKind& out);
bool try_parse(const std::string& text, RowSolverKind& out);
bool try_parse(const std::string& text, StoragePrecision& out);
LinearSolverKind parse_linear_solver(const std::string& text);
RowSolverKind parse_row_solver(const std::string& text);
StoragePrecision parse_storage_precision(const std::string& text);

/// One code variant of the ALS update kernel.
struct AlsVariant {
  /// Thread batching (§III-B): a whole work-group updates one row. When
  /// false, the flat baseline mapping is used (one lane per row) and the
  /// other toggles are ignored (the baseline has none of them).
  bool thread_batching = true;
  /// §III-C1: replace the k×k dynamically-indexed private accumulator with
  /// unrolled per-lane registers.
  bool use_registers = false;
  /// §III-C2: stage the needed columns of Y and the nonzeros of r_u in
  /// local (scratch-pad) memory.
  bool use_local = false;
  /// §III-C3: explicit vector types for the inner loops.
  bool use_vectors = false;

  /// Short display name, e.g. "batch+local+reg".
  std::string name() const;

  /// The 8 batched variants in toggle order (index = bitmask reg|local|vec).
  static AlsVariant from_mask(unsigned mask);
  static constexpr unsigned kVariantCount = 8;

  /// Named presets used throughout the paper's figures.
  static AlsVariant flat_baseline();       ///< SAC'15 mapping
  static AlsVariant batching_only();       ///< "thread batching"
  static AlsVariant batch_local();         ///< "+local memory"
  static AlsVariant batch_local_reg();     ///< "+local memory +register"
  static AlsVariant batch_vectors();       ///< "+vector"

  friend bool operator==(const AlsVariant&, const AlsVariant&) = default;
};

/// Hyperparameters shared by every factorization trainer in the family —
/// explicit ALS (AlsOptions), implicit ALS (ImplicitOptions), and the
/// multi-device driver. One definition, one validation path.
struct FactorOptionsBase {
  int k = 10;                 ///< latent factor dimensionality
  real lambda = 0.1f;         ///< Tikhonov regularization
  int iterations = 5;         ///< training iteration budget
  std::uint64_t seed = 42;    ///< random init of the item factors
};

/// Validates the shared hyperparameters; throws an Error naming the bad
/// field, the offending value, and the accepted range.
void validate(const FactorOptionsBase& options);

/// ALS hyperparameters and launch shape. Paper defaults: k = 10, λ = 0.1,
/// 5 iterations, thread configuration 8192 × 32.
struct AlsOptions : FactorOptionsBase {
  std::size_t num_groups = 8192;  ///< work-groups per launch (batched)
  int group_size = 32;            ///< lanes per work-group
  /// Local-memory staging tile rows (0 = auto-sized for occupancy).
  int tile_rows = 0;
  LinearSolverKind solver = LinearSolverKind::kCholesky;
  /// Row-solver strategy for step S3. kCholesky reproduces the paper's
  /// exact solve bit-for-bit; kSubspace trades per-row accuracy for
  /// time-to-quality (docs/solvers.md).
  RowSolverKind row_solver = RowSolverKind::kCholesky;
  /// Subspace block size d (row_solver == kSubspace). 0 = auto: max(2, k/2),
  /// clamped to k.
  int subspace_block = 0;
  /// ALS-WR (Zhou et al., the paper's [3]): scale the ridge term per row by
  /// its rating count, λ_u = λ·|Ω_u| — markedly better generalization on
  /// sparse data at the same per-iteration cost.
  bool weighted_regularization = false;
  /// Factor storage width. Non-fp32 runs round every freshly solved factor
  /// block through the storage format after the half-update — exactly what
  /// a device storing X/Y at half width would observe — trading a bounded
  /// RMSE delta (bench_regress fp16_train leg) for halved factor traffic.
  StoragePrecision storage = StoragePrecision::kFp32;
  /// Functional execution (compute the factors) vs accounting-only
  /// (cost-model sweeps).
  bool functional = true;

  /// The effective subspace block size (resolves the 0 = auto default).
  int effective_subspace_block() const;
};

/// Full validation: the shared base plus the launch shape and the
/// row-solver knobs.
void validate(const AlsOptions& options);

}  // namespace alsmf
