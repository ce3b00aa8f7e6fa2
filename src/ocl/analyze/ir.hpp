// Access-pattern IR: each __kernel lowered into (a) a table of raw memory
// references with affine-index classification, (b) loop nest records with
// trip counts parameterized by dataset statistics, and (c) traffic/op
// records at *traversal* granularity — the unit the devsim accounting
// kernels charge at (one gathered y-row fetch, one staged-tile replay, one
// segment-stream element), so the static profile (static_profile.hpp) and
// the dynamic counters are directly comparable.
//
// Frequencies are symbolic: a record's multiplicity is
//   factor × rows^per_row × ω̄^per_nnz × ⌈ω̄/T⌉^per_chunk × (ω̄/⌈ω̄/T⌉)^chunk_body
// evaluated against DatasetStats (rows = nonempty rows, ω̄ = mean nnz per
// nonempty row, T = staging tile rows).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ocl/analyze/ast.hpp"

namespace alsmf::ocl::analyze {

/// Exported affine index form `c + Σ coeff·term` over the lowering's
/// symbolic terms. Term tags:
///   "lane" / "group" / "ngroups" / "row"  — work-item identity
///   "loopvar#<id>" / "lpvar#<id>"         — surrounding loop variables
///                                           (lpvar: the multiple-of-WS part
///                                           of a lane-partitioned variable)
///   "seg#<n>"                             — an unscaled global int load
///                                           (CSR segment pointers)
///   "gather#<n>"                          — a global int load scaled by a
///                                           constant ≥ 2 (row addressing)
/// The verifier (analyze/verify/) resolves term ranges through the loop
/// table and the indirect-load table below.
struct AffineIdx {
  bool ok = true;  // false: the index contains something non-affine
  long c = 0;
  std::map<std::string, long> terms;

  long coeff(const std::string& tag) const {
    auto it = terms.find(tag);
    return it == terms.end() ? 0 : it->second;
  }
};

enum class MemSpace { kGlobal, kLocal, kPrivate };

enum class Coalescing {
  kUnitStride,  // consecutive lanes touch consecutive elements
  kStrided,     // constant non-unit lane stride
  kGathered,    // data-dependent base (indirect addressing)
  kUniform,     // lane-invariant address (broadcast)
};

/// Symbolic per-launch multiplicity of a loop body / access / statement.
struct Freq {
  double factor = 1.0;  // compile-time constant trips (K loops, unrolling)
  int per_row = 0;      // exponent of nonempty-row count
  int per_nnz = 0;      // exponent of mean nnz/row
  int per_chunk = 0;    // exponent of ⌈ω̄ / tile_rows⌉
  int chunk_body = 0;   // exponent of the average chunk size ω̄/⌈ω̄/T⌉

  Freq times(const Freq& o) const {
    Freq f = *this;
    f.factor *= o.factor;
    f.per_row += o.per_row;
    f.per_nnz += o.per_nnz;
    f.per_chunk += o.per_chunk;
    f.chunk_body += o.chunk_body;
    return f;
  }
  /// rows/omega/chunks/chunk_avg supplied by the evaluation environment.
  double eval(double rows, double omega, double chunks,
              double chunk_avg) const;
};

struct LoopIR {
  enum class Kind {
    kRowStride,   // for (u = group; u < rows; u += stride): rows over groups
    kNnz,         // trip count = the row's nonzero count
    kChunked,     // base += TILE over the row's nonzeros
    kChunkBody,   // z < chunk inside a chunked loop
    kLanePart,    // for (i = lx; i < N; i += WS): lanes partition N
    kFixed,       // compile-time trip count
  };
  Kind kind = Kind::kFixed;
  double trips = 1;        // kFixed: exact; kLanePart: partitioned bound
  std::string bound;       // human-readable bound
  int line = 0;
  int depth = 0;

  // --- verifier-facing structure (analyze/verify/) ---
  long id = -1;            // matches "loopvar#<id>" / "lpvar#<id>" terms
  long step = 1;           // constant step (1 for ++/--)
  bool step_down = false;  // for (i = C; i >= 0; --i)
  bool bound_inclusive = false;  // condition used <=
  AffineIdx init_affine;   // affine of the init expression (ok=false: unknown)
  AffineIdx bound_affine;  // affine of the bound expression
  std::string bound_var;   // bound identifier name ("rows", "omega", "chunk")
  std::string nnz_var;     // the RowNnz variable the bound derives from
                           // (kNnz/kChunked: the bound itself; kChunkBody and
                           // chunk-bounded kLanePart: via the ChunkSize min())
  long chunk_link = -1;    // kChunkBody / chunk-bounded kLanePart: id of the
                           // enclosing kChunked loop whose base offsets it
  long lane_span = 0;      // kLanePart with a constant bound
  bool lane_region = false;      // kLanePart over a chunk/nnz bound
  int entry_interval = 0;  // barrier interval at loop entry
  int exit_interval = 0;   // barrier interval at the end of the body
  bool body_has_barrier = false;
};

/// One memory reference in the source (per AST index expression).
struct RefIR {
  std::string buffer;
  MemSpace space = MemSpace::kGlobal;
  bool is_store = false;
  Coalescing coalescing = Coalescing::kUniform;
  int elem_bytes = 4;
  long lane_coeff = 0;      // coefficient of the lane id in the index
  int bank_conflict = 1;    // modeled scratch-pad conflict degree (local)
  bool hot = false;         // under a per-nnz / chunk-body loop
  bool lane_partitioned = false;  // executed inside a lane-partitioned loop
  bool divergent_guard = false;   // under a lane-divergent if/else branch
  bool zero_weight = false;       // in an empty-row early-exit branch
  int loop_depth = 0;
  int line = 0;
  int col = 0;
  std::string index;        // pretty-printed index expression

  // --- verifier-facing structure (analyze/verify/) ---
  AffineIdx affine;         // the full symbolic index
  int interval = 0;         // barrier-interval ordinal (program order)
  long lane_bound = 0;      // enclosing `if (lane < C)` guard bound (0: none)
  int vec_elems = 1;        // vloadN: elements [affine, affine + vec_elems)
  std::vector<long> loop_path;  // ids of enclosing loops, outermost first
};

/// Traffic at traversal granularity (what the cost comparison uses).
struct TrafficIR {
  enum class Kind {
    kGatherTraversal,  // global gathered stream: 1 access of span bytes;
                       // first per stream is cold, the rest re-traverse
    kLocalTraversal,   // staged-tile stream replay from the scratch-pad
    kStreamRead,       // coalesced global stream read, span bytes per trip
    kStreamWrite,      // coalesced global store
    kScatterWrite,     // 1 scattered access of span bytes per trip
    kLocalRead,        // broadcast scratch-pad read, span bytes per trip
    kLocalWrite,       // scratch-pad store, span bytes per trip
    kPrivateUpdate,    // dyn-indexed private accumulator update (8 B)
  };
  Kind kind = Kind::kStreamRead;
  std::string buffer;
  double span_bytes = 4;   // group-level useful bytes per traversal/trip
  Freq freq;
  bool lane_partitioned = false;  // cooperative staging: no passes scaling,
                                  // no gather/latency issue cost
  int order = 0;  // statement order (cold-vs-reread within a stream)
  int line = 0;
};

/// Hot accumulation statements (the S1/S2 fma work).
struct OpIR {
  Freq freq;
  double ops_per_trip = 1;  // per lane
  bool vectorized = false;
  bool s1_class = false;  // reads the operand stream directly (k-sum work);
                          // false = reduction over already-loaded values
  int line = 0;
};

struct BarrierIR {
  Freq freq;       // per enclosing chunk/row
  bool hot = false;  // inside the chunked staging loop (priced)
  /// Reached by a lane-dependent subset of the group: under a lane-divergent
  /// if/else branch, or in a loop whose trip count varies across lanes.
  bool divergent = false;
  int line = 0;
};

struct LocalDeclIR {
  std::string name;
  long elems = 0;     // -1 when the extent is not a compile-time constant
  int elem_bytes = 4;
  int line = 0;
};

struct PrivateArrayIR {
  std::string name;
  long elems = 0;
  bool dynamically_indexed = false;
  int line = 0;
};

struct ArgIR {
  std::string name;
  std::string type;
  bool is_pointer = false;
  bool is_global = false;
  bool used = false;
  int line = 0;
};

/// Provenance of a "seg#<n>" / "gather#<n>" term: which int buffer the value
/// was loaded from, at what (affine) index, and the constant scale applied.
struct IndirectIR {
  std::string tag;
  std::string buffer;
  long scale = 1;          // gather#: the multiplier; seg#: 1
  AffineIdx load_index;    // index of the load producing the value
};

/// A `omega = row_ptr[u + 1] - row_ptr[u]` segment-length variable: the
/// relational fact `begin_seg + omega ≤ total buffer span` the CSR bounds
/// rule is built on.
struct RowNnzIR {
  std::string var;        // declared variable name ("omega", "len")
  std::string buffer;     // the offsets buffer ("row_ptr")
  std::string begin_seg;  // seg# tag of the lower-offset load
};

struct KernelIR {
  std::string name;
  bool batched_mapping = false;  // row loop over groups vs one item per row
  long k = 0;                    // from #define K
  long ws = 0;                   // from #define WS
  long tile_rows_define = 0;     // from #define TILE_ROWS
  long cg_iters = 0;             // from #define CG_ITERS (0: not a cg kernel)
  /// Storage width of the factor/rating buffers, from `typedef ... storage_t`
  /// (4 = plain real_t storage). Narrow storage halves the already-priced
  /// per-reference byte widths; the static profile additionally retags
  /// vector ops as half-width (doubled effective SIMD packing).
  int storage_bytes = 4;
  std::string storage_base;      // "half" / "bfloat16"; empty = real_t

  std::vector<ArgIR> args;
  std::vector<LoopIR> loops;
  std::vector<RefIR> refs;
  std::vector<TrafficIR> traffic;
  std::vector<OpIR> ops;
  std::vector<BarrierIR> barriers;
  std::vector<LocalDeclIR> locals;
  std::vector<PrivateArrayIR> private_arrays;
  std::vector<IndirectIR> indirects;
  std::vector<RowNnzIR> row_nnz;

  /// The row identity is bounded: a `if (row >= bound) return;` launch
  /// guard (flat mapping) or a row-stride loop bound (batched mapping).
  bool row_bounded = false;
  std::string row_bound_var;  // the bounding identifier ("rows")
  int interval_count = 1;     // number of barrier intervals (program order)

  const LoopIR* loop_by_id(long id) const {
    for (const auto& l : loops) {
      if (l.id == id) return &l;
    }
    return nullptr;
  }
  const IndirectIR* indirect_by_tag(const std::string& tag) const {
    for (const auto& i : indirects) {
      if (i.tag == tag) return &i;
    }
    return nullptr;
  }

  /// Kernel calls a single-lane solve helper per row (`if (lx == 0) f(...)`).
  bool has_lane0_solve = false;
  /// Name of that helper — selects the S3 flop model ("cg_solve_inplace"
  /// prices as truncated CG over cg_iters; anything else as Cholesky).
  std::string lane0_solve_callee;
  /// Unrolled per-lane scalar accumulators (the registers optimization).
  bool has_unrolled_accumulators = false;
  /// Hot-loop scratch-pad staging (the local-memory optimization).
  bool has_local_staging = false;
  /// Explicit vector accumulation (vloadN + .sN components).
  bool has_vector_ops = false;

  long declared_local_bytes() const;
  int max_bank_conflict() const;
};

/// Lowers every __kernel in the translation unit. Throws ParseError when a
/// kernel uses constructs the lowering cannot classify.
std::vector<KernelIR> lower_kernels(const TranslationUnit& tu);

const char* to_string(Coalescing c);
const char* to_string(TrafficIR::Kind k);
const char* to_string(LoopIR::Kind k);

}  // namespace alsmf::ocl::analyze
