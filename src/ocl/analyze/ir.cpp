// Lowering from the OpenCL-C AST to the access-pattern IR. The emission
// rules mirror the devsim accounting in als/kernels.cpp at *traversal*
// granularity: a guarded lane load of a gathered y row is one traversal of
// k·sizeof(real) bytes, the unrolled k-element sweep over the same row is a
// second, and a statement that consumes a stream variable without touching
// the stream again replays it a third time. The static profile
// (static_profile.cpp) prices those traversals through the same device
// profiles the dynamic counters use, which is what makes the
// static/dynamic agreement tests possible.
#include "ocl/analyze/ir.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "ocl/analyze/lexer.hpp"

namespace alsmf::ocl::analyze {

double Freq::eval(double rows, double omega, double chunks,
                  double chunk_avg) const {
  double v = factor;
  for (int i = 0; i < per_row; ++i) v *= rows;
  for (int i = 0; i < per_nnz; ++i) v *= omega;
  for (int i = 0; i < per_chunk; ++i) v *= chunks;
  for (int i = 0; i < chunk_body; ++i) v *= chunk_avg;
  return v;
}

long KernelIR::declared_local_bytes() const {
  long total = 0;
  for (const auto& l : locals) {
    if (l.elems < 0) return -1;
    total += l.elems * l.elem_bytes;
  }
  return total;
}

int KernelIR::max_bank_conflict() const {
  int worst = 1;
  for (const auto& r : refs) {
    if (r.space == MemSpace::kLocal && r.bank_conflict > worst) {
      worst = r.bank_conflict;
    }
  }
  return worst;
}

const char* to_string(Coalescing c) {
  switch (c) {
    case Coalescing::kUnitStride: return "unit-stride";
    case Coalescing::kStrided: return "strided";
    case Coalescing::kGathered: return "gathered";
    case Coalescing::kUniform: return "uniform";
  }
  return "?";
}

const char* to_string(TrafficIR::Kind k) {
  switch (k) {
    case TrafficIR::Kind::kGatherTraversal: return "gather-traversal";
    case TrafficIR::Kind::kLocalTraversal: return "local-traversal";
    case TrafficIR::Kind::kStreamRead: return "stream-read";
    case TrafficIR::Kind::kStreamWrite: return "stream-write";
    case TrafficIR::Kind::kScatterWrite: return "scatter-write";
    case TrafficIR::Kind::kLocalRead: return "local-read";
    case TrafficIR::Kind::kLocalWrite: return "local-write";
    case TrafficIR::Kind::kPrivateUpdate: return "private-update";
  }
  return "?";
}

const char* to_string(LoopIR::Kind k) {
  switch (k) {
    case LoopIR::Kind::kRowStride: return "row-stride";
    case LoopIR::Kind::kNnz: return "nnz";
    case LoopIR::Kind::kChunked: return "chunked";
    case LoopIR::Kind::kChunkBody: return "chunk-body";
    case LoopIR::Kind::kLanePart: return "lane-partitioned";
    case LoopIR::Kind::kFixed: return "fixed";
  }
  return "?";
}

namespace {

long igcd(long a, long b) {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b != 0) {
    const long t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Affine form c + Σ coeff·term over symbolic terms. Term tags:
///   "lane" / "group" / "ngroups" / "row"  — work-item identity
///   "loop#<id>"                           — a surrounding loop variable
///   "seg#<n>"                             — an unscaled global int load
///                                           (CSR segment pointers)
///   "gather#<n>"                          — a global int load scaled by a
///                                           constant ≥ 2 (row addressing)
struct Affine {
  bool ok = true;  // false: contains something non-affine ("?" terms)
  long c = 0;
  std::map<std::string, long> t;

  long coeff(const std::string& k) const {
    auto it = t.find(k);
    return it == t.end() ? 0 : it->second;
  }
  bool has_prefix(const char* p) const {
    for (const auto& [k, v] : t) {
      if (v != 0 && k.rfind(p, 0) == 0) return true;
    }
    return false;
  }
};

Affine aff_const(long c) {
  Affine a;
  a.c = c;
  return a;
}

Affine aff_term(const std::string& tag, long coeff = 1) {
  Affine a;
  a.t[tag] = coeff;
  return a;
}

Affine aff_unknown() {
  Affine a;
  a.ok = false;
  return a;
}

Affine aff_add(const Affine& x, const Affine& y, long sign = 1) {
  Affine r = x;
  r.ok = x.ok && y.ok;
  r.c += sign * y.c;
  for (const auto& [k, v] : y.t) {
    r.t[k] += sign * v;
    if (r.t[k] == 0) r.t.erase(k);
  }
  return r;
}

Affine aff_scale(const Affine& x, long s) {
  Affine r = x;
  r.c *= s;
  for (auto& [k, v] : r.t) v *= s;
  if (s == 0) r.t.clear();
  return r;
}

bool aff_is_const(const Affine& a) { return a.ok && a.t.empty(); }

/// The work-item identity builtins as affine terms; unknown for any other
/// call.
Affine aff_of_call(const std::string& callee) {
  if (callee == "get_local_id") return aff_term("lane");
  if (callee == "get_group_id") return aff_term("group");
  if (callee == "get_num_groups") return aff_term("ngroups");
  if (callee == "get_global_id") return aff_term("row");
  return aff_unknown();
}

/// `x = ...` and the compound `x op= ...` (not the comparisons).
bool is_assignment(const std::string& op) {
  return op == "=" || (op.size() == 2 && op[1] == '=' &&
                       std::string("+-*/%&|^").find(op[0]) !=
                           std::string::npos);
}

AffineIdx aff_export(const Affine& a) {
  AffineIdx out;
  out.ok = a.ok;
  out.c = a.c;
  out.terms = a.t;
  return out;
}

/// Serializes the non-constant part for fold/dedupe keys.
std::string aff_key(const Affine& a) {
  std::ostringstream os;
  for (const auto& [k, v] : a.t) {
    if (v != 0) os << k << "*" << v << "+";
  }
  if (!a.ok) os << "?";
  return os.str();
}

/// Symbolic value of a scalar variable.
struct Sym {
  enum class Kind { kNone, kAffine, kRowNnz, kChunkSize, kStreamVar };
  Kind kind = Kind::kNone;
  Affine aff;
  // Stream variables: a value loaded from a data stream.
  std::string buffer;
  MemSpace space = MemSpace::kGlobal;
  bool gathered = false;
  bool guarded = false;    // from a `(lx < G) ? buf[lx] : 0` lane load
  bool from_vload = false;
  long guard = 0;
  // RowNnz: which offsets buffer / lower-offset load it derives from.
  std::string begin_seg;
  // ChunkSize: the RowNnz variable and chunked-loop id inside the min().
  std::string nnz_var;
  long chunk_base = -1;
};

struct BufRef {
  bool ok = false;
  std::string buffer;
  std::string type;  // element type ("real_t", "int", ...)
  MemSpace space = MemSpace::kGlobal;
  int elem_bytes = 4;
  Affine base;  // pointer arithmetic folded into the index
};

bool is_real_type(const std::string& t) {
  return t == "real_t" || t == "float" || t == "double" || t == "storage_t" ||
         t == "half" || t == "bfloat16";
}

struct LoopFrame {
  LoopIR::Kind kind = LoopIR::Kind::kFixed;
  std::string var;
  long id = 0;
  double trips = 1;      // kFixed: (possibly averaged) trip count
  double avg_value = 0;  // kFixed: mean value of the loop variable
  long lane_span = 0;    // kLanePart with a constant bound: elements covered
  bool lane_region = false;  // kLanePart over a chunk: per-element freq
  std::size_t first_barrier = 0;  // index of the body's first BarrierIR
  bool lane_exit = false;  // a lane-divergent continue/break was lowered
};

/// A pending traversal fold: several references to the same buffer/base
/// merged into one contiguous traversal (unrolled constant offsets, vloadN
/// lanes, or a unit-coefficient fixed loop).
struct Fold {
  TrafficIR::Kind kind = TrafficIR::Kind::kStreamRead;
  std::string buffer;
  int elem_bytes = 4;
  double span_elems = 0;  // loop folds: trip count
  long lo = 0, hi = -1;   // const-offset folds: inclusive offset range
  bool range_mode = false;
  bool gathered = false;
  bool lane_part = false;
  Freq freq;
  int line = 0;
};

class KernelLowerer {
 public:
  KernelLowerer(const TranslationUnit& tu, const FunctionDecl& fn)
      : tu_(tu), fn_(fn) {}

  KernelIR run() {
    out_.name = fn_.name;
    eval_define("K", tu_.defines, out_.k);
    eval_define("WS", tu_.defines, out_.ws);
    eval_define("TILE_ROWS", tu_.defines, out_.tile_rows_define);
    if (tu_.storage_t_bytes != 0) {
      out_.storage_bytes = static_cast<int>(tu_.storage_t_bytes);
      out_.storage_base = tu_.storage_t_base;
    }

    for (const auto& p : fn_.params) {
      ArgIR a;
      a.name = p.name;
      a.type = p.type;
      a.is_pointer = p.is_pointer;
      a.is_global = p.is_global;
      a.line = p.line;
      out_.args.push_back(a);
      if (p.is_pointer) {
        BufRef b;
        b.ok = true;
        b.buffer = p.name;
        b.type = p.type;
        b.space = p.is_local ? MemSpace::kLocal : MemSpace::kGlobal;
        b.elem_bytes = elem_width(p.type);
        buffers_[p.name] = b;
      }
    }

    out_.batched_mapping = has_row_stride_loop(fn_.body);
    if (!out_.batched_mapping) freq_.per_row = 1;

    // Lane dependence is flow-insensitive: iterate until no assignment
    // adds a variable, so a value set under a lane-divergent branch taints
    // every loop bound and condition that reads it, before or after.
    std::size_t known = 0;
    do {
      known = lane_vars_.size();
      taint_list(fn_.body, /*divergent=*/false);
    } while (lane_vars_.size() != known);

    for (const auto& s : fn_.body) stmt(*s);
    flush_folds();
    out_.has_unrolled_accumulators = scalar_accumulators_.size() >= 4;
    out_.interval_count = interval_ + 1;
    return std::move(out_);
  }

 private:
  /// Element width of a declared type. `storage_t` resolves through the
  /// translation unit's storage typedef (mixed-precision flavors store
  /// factors at half width while computing in real_t).
  int elem_width(const std::string& type) const {
    if (type == "storage_t" && tu_.storage_t_bytes != 0) {
      return static_cast<int>(tu_.storage_t_bytes);
    }
    const int bytes = static_cast<int>(type_size(type, tu_.real_t_bytes));
    return bytes != 0 ? bytes : 4;
  }

  // ---- lane dependence (which barriers only some lanes reach) ----
  /// True when `e` can differ between the lanes of one group: it calls
  /// get_local_id/get_global_id or reads a lane-dependent variable.
  bool lane_dependent(const Expr& e) const {
    if (e.kind == Expr::Kind::kCall &&
        (e.name == "get_local_id" || e.name == "get_global_id")) {
      return true;
    }
    if (e.kind == Expr::Kind::kIdent && lane_vars_.count(e.name) != 0) {
      return true;
    }
    for (const auto& k : e.kids) {
      if (k && lane_dependent(*k)) return true;
    }
    return false;
  }

  /// A for loop whose trip count can differ between lanes: its start value,
  /// bound or stride reads a lane-dependent value.
  bool loop_diverges(const Stmt& s) const {
    // The right-hand side of `i = start`, `i < bound` and `i += stride`.
    const auto rhs = [](const Expr* e) -> const Expr* {
      return e && e->kind == Expr::Kind::kBinary ? e->kids[1].get() : nullptr;
    };
    const Stmt* init = s.for_init.get();
    const Expr* start = !init ? nullptr
                        : init->kind == Stmt::Kind::kDecl
                            ? init->init.get()
                            : rhs(init->cond.get());
    for (const Expr* e : {start, rhs(s.cond.get()), rhs(s.step.get())}) {
      if (e && lane_dependent(*e)) return true;
    }
    return false;
  }

  /// One round of the lane-dependence fixpoint: a variable becomes
  /// lane-dependent when it is assigned a lane-dependent value, or assigned
  /// at all under lane-divergent control flow.
  void taint_list(const std::vector<StmtPtr>& body, bool divergent) {
    for (const auto& s : body) {
      if (s) taint(*s, divergent);
    }
  }

  void taint(const Stmt& s, bool divergent) {
    switch (s.kind) {
      case Stmt::Kind::kDecl:
        if (s.init && (divergent || lane_dependent(*s.init))) {
          lane_vars_.insert(s.name);
        }
        break;
      case Stmt::Kind::kExpr:
        if (s.cond) taint_assignment(*s.cond, divergent);
        break;
      case Stmt::Kind::kIf:
      case Stmt::Kind::kWhile: {
        const bool d = divergent || lane_dependent(*s.cond);
        taint_list(s.body, d);
        taint_list(s.else_body, d);
        break;
      }
      case Stmt::Kind::kFor: {
        const bool d = divergent || loop_diverges(s);
        if (s.for_init) taint(*s.for_init, divergent);
        if (s.step) taint_assignment(*s.step, d);
        taint_list(s.body, d);
        break;
      }
      case Stmt::Kind::kBlock:
        taint_list(s.body, divergent);
        break;
      default:
        break;
    }
  }

  void taint_assignment(const Expr& e, bool divergent) {
    const bool assigns = e.kind == Expr::Kind::kBinary && is_assignment(e.name);
    const bool steps =
        e.kind == Expr::Kind::kUnary && (e.name == "++" || e.name == "--");
    if ((!assigns && !steps) || e.kids[0]->kind != Expr::Kind::kIdent) return;
    if (divergent || (assigns && lane_dependent(*e.kids[1]))) {
      lane_vars_.insert(e.kids[0]->name);
    }
  }

  // ---- identifier usage ----
  void mark_used(const std::string& name) {
    for (auto& a : out_.args) {
      if (a.name == name) a.used = true;
    }
  }
  void mark_used_expr(const Expr& e) {
    if (e.kind == Expr::Kind::kIdent) mark_used(e.name);
    for (const auto& k : e.kids) {
      if (k) mark_used_expr(*k);
    }
  }

  // ---- pretty printing (RefIR::index, loop bounds) ----
  std::string print(const Expr& e) const {
    std::ostringstream os;
    switch (e.kind) {
      case Expr::Kind::kIntLit: os << e.ival; break;
      case Expr::Kind::kFloatLit: os << e.name; break;
      case Expr::Kind::kIdent: os << e.name; break;
      case Expr::Kind::kUnary:
        os << e.name << print(*e.kids[0]);
        break;
      case Expr::Kind::kBinary:
        os << print(*e.kids[0]) << " " << e.name << " " << print(*e.kids[1]);
        break;
      case Expr::Kind::kTernary:
        os << print(*e.kids[0]) << " ? " << print(*e.kids[1]) << " : "
           << print(*e.kids[2]);
        break;
      case Expr::Kind::kCall: {
        os << e.name << "(";
        for (std::size_t i = 0; i < e.kids.size(); ++i) {
          if (i) os << ", ";
          os << print(*e.kids[i]);
        }
        os << ")";
        break;
      }
      case Expr::Kind::kIndex:
        os << print(*e.kids[0]) << "[" << print(*e.kids[1]) << "]";
        break;
      case Expr::Kind::kMember:
        os << print(*e.kids[0]) << "." << e.name;
        break;
      case Expr::Kind::kCast:
        os << "(" << e.name << ")" << print(*e.kids[0]);
        break;
    }
    return os.str();
  }

  // ---- affine evaluation ----
  /// The affine form of `e`. With `emit`, the loads in it are recorded as
  /// references and segment loads become seg#/gather# terms; without, a load
  /// is simply unknown.
  Affine affine_of(const Expr& e, bool emit = true) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
        return aff_const(e.ival);
      case Expr::Kind::kIdent: {
        long dv = 0;
        auto it = env_.find(e.name);
        if (it != env_.end()) {
          const Sym& s = it->second;
          if (s.kind == Sym::Kind::kAffine) return s.aff;
          return aff_unknown();
        }
        if (eval_define(e.name, tu_.defines, dv)) return aff_const(dv);
        return aff_unknown();
      }
      case Expr::Kind::kUnary:
        if (e.name == "-") return aff_scale(affine_of(*e.kids[0], emit), -1);
        if (e.name == "++" || e.name == "--") {
          return affine_of(*e.kids[0], emit);
        }
        return aff_unknown();
      case Expr::Kind::kBinary: {
        if (e.name == "+" || e.name == "-") {
          return aff_add(affine_of(*e.kids[0], emit),
                         affine_of(*e.kids[1], emit), e.name == "+" ? 1 : -1);
        }
        if (e.name == "*") {
          Affine l = affine_of(*e.kids[0], emit);
          Affine r = affine_of(*e.kids[1], emit);
          if (aff_is_const(l)) std::swap(l, r);
          if (!aff_is_const(r)) return aff_unknown();
          return emit ? scaled(l, r.c) : aff_scale(l, r.c);
        }
        return aff_unknown();
      }
      case Expr::Kind::kCast:
        return affine_of(*e.kids[0], emit);
      case Expr::Kind::kCall:
        return aff_of_call(e.name);
      case Expr::Kind::kIndex: {
        // An int load used in address arithmetic: a CSR segment value.
        const BufRef b = emit ? resolve_buffer(*e.kids[0]) : BufRef{};
        if (b.ok && b.space == MemSpace::kGlobal) {
          emit_access(e, /*is_store=*/false);
          const std::string tag = "seg#" + std::to_string(seg_id_++);
          seg_buffer_[tag] = b.buffer;
          IndirectIR ind;
          ind.tag = tag;
          ind.buffer = b.buffer;
          ind.load_index =
              aff_export(aff_add(b.base, affine_of_probe(*e.kids[1])));
          out_.indirects.push_back(ind);
          return aff_term(tag);
        }
        return aff_unknown();
      }
      default:
        return aff_unknown();
    }
  }

  /// Scaling an unscaled segment value by a constant ≥ 2 turns it into a
  /// gather base (col_idx[..] * K row addressing).
  Affine scaled(const Affine& a, long s) {
    if (s >= 2 && a.ok && a.c == 0 && a.t.size() == 1 &&
        a.t.begin()->second == 1 && a.t.begin()->first.rfind("seg#", 0) == 0) {
      const std::string tag = "gather#" + std::to_string(gather_id_++);
      // The gather inherits the consumed segment load's provenance.
      if (const IndirectIR* seg =
              out_.indirect_by_tag(a.t.begin()->first)) {
        IndirectIR ind = *seg;
        ind.tag = tag;
        ind.scale = s;
        out_.indirects.push_back(ind);
      }
      return aff_term(tag);
    }
    return aff_scale(a, s);
  }

  BufRef resolve_buffer(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIdent: {
        auto it = buffers_.find(e.name);
        if (it != buffers_.end()) return it->second;
        return {};
      }
      case Expr::Kind::kBinary: {
        // (Y + d), (tile + z * K): pointer arithmetic folds into the base.
        if (e.name == "+") {
          BufRef b = resolve_buffer(*e.kids[0]);
          if (b.ok) {
            b.base = aff_add(b.base, affine_of(*e.kids[1]));
            return b;
          }
          b = resolve_buffer(*e.kids[1]);
          if (b.ok) b.base = aff_add(b.base, affine_of(*e.kids[0]));
          return b;
        }
        return {};
      }
      case Expr::Kind::kCast:
        return resolve_buffer(*e.kids[0]);
      default:
        return {};
    }
  }

  // ---- loop frames / frequency ----
  bool has_row_stride_loop(const std::vector<StmtPtr>& body) const {
    for (const auto& sp : body) {
      if (!sp) continue;
      const Stmt& s = *sp;
      if (s.kind == Stmt::Kind::kFor && s.step &&
          s.step->kind == Expr::Kind::kBinary && s.step->name == "+=" &&
          s.step->kids[1]->kind == Expr::Kind::kIdent) {
        // `u += stride`: a variable (not #define'd) stride is the
        // group-count row loop; `p += WS` steps by a macro constant.
        if (tu_.defines.count(s.step->kids[1]->name) == 0) return true;
      }
      if (s.kind == Stmt::Kind::kFor || s.kind == Stmt::Kind::kIf ||
          s.kind == Stmt::Kind::kBlock) {
        if (has_row_stride_loop(s.body)) return true;
        if (has_row_stride_loop(s.else_body)) return true;
      }
    }
    return false;
  }

  bool freq_hot() const {
    return freq_.per_nnz > 0 || freq_.per_chunk > 0 || freq_.chunk_body > 0;
  }

  const LoopFrame* innermost_fixed() const {
    for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
      if (it->kind == LoopIR::Kind::kFixed) return &*it;
    }
    return nullptr;
  }

  const LoopFrame* lane_const_frame(const Affine& idx) const {
    for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
      if (it->kind == LoopIR::Kind::kLanePart && it->lane_span > 0 &&
          idx.coeff("lpvar#" + std::to_string(it->id)) == 1) {
        return &*it;
      }
    }
    return nullptr;
  }

  bool in_lane_region() const {
    for (const auto& f : loops_) {
      if (f.lane_region) return true;
    }
    return false;
  }

  long current_lane_bound() const {
    long bound = 0;
    for (const long b : lane_bound_stack_) {
      if (bound == 0 || b < bound) bound = b;
    }
    return bound;
  }

  std::vector<long> current_loop_path() const {
    std::vector<long> path;
    path.reserve(loops_.size());
    for (const auto& f : loops_) path.push_back(f.id);
    return path;
  }

  // ---- reference + traffic emission ----
  /// Lane coefficient of an index. Lane-partitioned loop variables carry
  /// their lane term explicitly (p = lx + n·WS → {lane:1, lpvar:1}), so
  /// the direct lane coefficient is the whole story.
  long lane_coeff_of(const Affine& idx) const { return idx.coeff("lane"); }

  Coalescing classify(const Affine& idx) const {
    if (idx.has_prefix("gather#")) return Coalescing::kGathered;
    for (const auto& [k, v] : idx.t) {
      if (v != 0 && v != 1 && k.rfind("seg#", 0) == 0) {
        return Coalescing::kGathered;
      }
    }
    const long lane = lane_coeff_of(idx);
    if (lane == 1 || lane == -1) return Coalescing::kUnitStride;
    if (lane != 0) return Coalescing::kStrided;
    const long row = idx.coeff("row");
    if (row != 0 && row != 1 && row != -1) return Coalescing::kStrided;
    return Coalescing::kUniform;
  }

  int bank_conflict_of(const Affine& idx) const {
    const long lane = lane_coeff_of(idx);
    if (lane == 0) return 1;  // broadcast
    const long ws = out_.ws > 0 ? std::min<long>(out_.ws, 32) : 32;
    long g = igcd(lane, 32);
    long degree = ws * g / 32;
    return static_cast<int>(std::max<long>(degree, 1));
  }

  TrafficIR::Kind traffic_kind(const BufRef& b, const Affine& idx,
                               bool is_store, bool gathered) const {
    if (b.space == MemSpace::kLocal) {
      return is_store ? TrafficIR::Kind::kLocalWrite
                      : TrafficIR::Kind::kLocalRead;
    }
    if (is_store) {
      const long row = idx.coeff("row");
      return (gathered || row > 1 || row < -1)
                 ? TrafficIR::Kind::kScatterWrite
                 : TrafficIR::Kind::kStreamWrite;
    }
    return gathered ? TrafficIR::Kind::kGatherTraversal
                    : TrafficIR::Kind::kStreamRead;
  }

  /// Records the RefIR for an index expression and emits (or folds) its
  /// traversal traffic. `e` must be a kIndex node.
  void emit_access(const Expr& e, bool is_store) {
    const BufRef b = resolve_buffer(*e.kids[0]);
    if (!b.ok) {
      throw ParseError{e.line,
                       "cannot resolve the buffer of '" + print(e) + "'"};
    }
    Affine idx = aff_add(b.base, affine_of(*e.kids[1]));

    RefIR ref;
    ref.buffer = b.buffer;
    ref.space = b.space;
    ref.is_store = is_store;
    ref.elem_bytes = b.elem_bytes;
    ref.coalescing = classify(idx);
    ref.lane_coeff = lane_coeff_of(idx);
    if (b.space == MemSpace::kLocal) ref.bank_conflict = bank_conflict_of(idx);
    ref.hot = freq_hot();
    ref.lane_partitioned = in_lane_region();
    ref.divergent_guard = divergent_depth_ > 0;
    ref.zero_weight = zero_depth_ > 0;
    ref.loop_depth = static_cast<int>(loops_.size());
    ref.line = e.line;
    ref.col = e.col;
    ref.index = print(*e.kids[1]);
    ref.affine = aff_export(idx);
    ref.interval = interval_;
    ref.lane_bound = current_lane_bound();
    ref.loop_path = current_loop_path();
    out_.refs.push_back(ref);

    if (b.space == MemSpace::kPrivate) {
      for (auto& pa : out_.private_arrays) {
        if (pa.name == b.buffer && !aff_is_const(idx)) {
          pa.dynamically_indexed = true;
        }
      }
      return;  // private arrays are priced via kPrivateUpdate
    }
    if (zero_depth_ > 0) return;

    const bool gathered = ref.coalescing == Coalescing::kGathered;
    const TrafficIR::Kind kind = traffic_kind(b, idx, is_store, gathered);

    // Fold 1: unit coefficient in the innermost fixed loop — the loop
    // traverses trips·elem contiguous bytes of the buffer once per outer
    // iteration (`for (f = 0; f < K; ++f) ... buf[base + f]`).
    if (const LoopFrame* lf = innermost_fixed()) {
      const std::string lv = "loopvar#" + std::to_string(lf->id);
      if (idx.coeff(lv) == 1) {
        Affine base = idx;
        base.t.erase(lv);
        base.c = 0;
        Fold& f = folds_[fold_key(b, base, kind) + "|loop" +
                         std::to_string(lf->id)];
        f.kind = kind;
        f.buffer = b.buffer;
        f.elem_bytes = b.elem_bytes;
        f.span_elems = std::max(f.span_elems, lf->trips);
        f.gathered = gathered;
        f.lane_part = in_lane_region();
        Freq fq = freq_;
        fq.factor /= std::max(lf->trips, 1e-9);
        f.freq = fq;
        f.line = e.line;
        return;
      }
    }

    // Lane-partitioned loop with a constant bound: the lanes cover `bound`
    // elements cooperatively — one traversal of bound·elem bytes.
    if (const LoopFrame* lp = lane_const_frame(idx)) {
      emit_traffic(kind, b.buffer, double(lp->lane_span) * b.elem_bytes,
                   freq_, /*lane_part=*/false, gathered, e.line);
      return;
    }

    // Fold 2: constant offsets off a common base — unrolled accumulator
    // statements and vloadN lanes sweep a contiguous block.
    if (idx.ok && !idx.t.empty()) {
      Affine base = idx;
      base.c = 0;
      Fold& f = folds_[fold_key(b, base, kind) + "|blk"];
      f.kind = kind;
      f.buffer = b.buffer;
      f.elem_bytes = b.elem_bytes;
      f.range_mode = true;
      if (f.hi < f.lo) {
        f.lo = idx.c;
        f.hi = idx.c;
      } else {
        f.lo = std::min(f.lo, idx.c);
        f.hi = std::max(f.hi, idx.c);
      }
      f.gathered = gathered;
      f.lane_part = in_lane_region();
      f.freq = freq_;
      f.line = e.line;
      return;
    }

    emit_traffic(kind, b.buffer, b.elem_bytes, freq_, in_lane_region(),
                 gathered, e.line);
  }

  std::string fold_key(const BufRef& b, const Affine& base,
                       TrafficIR::Kind kind) const {
    return b.buffer + "|" + std::to_string(static_cast<int>(b.space)) + "|" +
           std::to_string(static_cast<int>(kind)) + "|" + aff_key(base);
  }

  void emit_traffic(TrafficIR::Kind kind, const std::string& buffer,
                    double span_bytes, const Freq& fq, bool lane_part,
                    bool gathered, int line) {
    TrafficIR t;
    t.kind = kind;
    t.buffer = buffer;
    t.span_bytes = span_bytes;
    t.freq = fq;
    t.lane_partitioned = lane_part;
    t.order = gathered ? order_++ : 0;
    t.line = line;
    out_.traffic.push_back(t);
    const bool hot =
        fq.per_nnz > 0 || fq.per_chunk > 0 || fq.chunk_body > 0;
    if (kind == TrafficIR::Kind::kLocalWrite && hot) {
      out_.has_local_staging = true;
    }
  }

  void flush_folds() {
    for (auto& [key, f] : folds_) {
      const double elems =
          f.range_mode ? static_cast<double>(f.hi - f.lo + 1) : f.span_elems;
      emit_traffic(f.kind, f.buffer, elems * f.elem_bytes, f.freq,
                   f.lane_part, f.gathered, f.line);
    }
    folds_.clear();
  }

  // ---- statements ----
  void stmt_list(const std::vector<StmtPtr>& body) {
    for (const auto& s : body) {
      if (s) stmt(*s);
    }
  }

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kDecl: decl(s); break;
      case Stmt::Kind::kExpr: expr_stmt(s); break;
      case Stmt::Kind::kIf: if_stmt(s); break;
      case Stmt::Kind::kFor: for_stmt(s); break;
      case Stmt::Kind::kWhile:
        throw ParseError{s.line, "while loops are outside the analyzable "
                                 "subset (unbounded trip count)"};
      case Stmt::Kind::kBlock: stmt_list(s.body); break;
      case Stmt::Kind::kBarrier: {
        BarrierIR b;
        b.freq = freq_;
        b.hot = freq_.per_chunk > 0;
        b.divergent = divergent_depth_ > 0 || lane_loop_depth_ > 0 ||
                      lane_return_ ||
                      std::any_of(loops_.begin(), loops_.end(),
                                  [](const LoopFrame& f) { return f.lane_exit; });
        b.line = s.line;
        out_.barriers.push_back(b);
        ++interval_;  // a barrier opens a new MHP interval
        break;
      }
      case Stmt::Kind::kReturn:
      case Stmt::Kind::kContinue:
      case Stmt::Kind::kBreak:
        if (lane_branch_depth_ > 0 || lane_loop_depth_ > 0) lane_exit(s.kind);
        break;
    }
  }

  /// An exit that only some lanes take leaves the others to reach every
  /// later barrier of its scope without them: the rest of the kernel after
  /// `return`, the rest of the loop after `continue` or `break`. Lanes that
  /// leave a loop (`break`, or `return` from inside it) also miss its
  /// earlier barriers on its later trips.
  void lane_exit(Stmt::Kind kind) {
    if (kind == Stmt::Kind::kReturn) {
      lane_return_ = true;
    } else if (!loops_.empty()) {
      loops_.back().lane_exit = true;
    }
    if (kind == Stmt::Kind::kContinue || loops_.empty()) return;
    const LoopFrame& left =
        kind == Stmt::Kind::kReturn ? loops_.front() : loops_.back();
    for (std::size_t i = left.first_barrier; i < out_.barriers.size(); ++i) {
      out_.barriers[i].divergent = true;
    }
  }

  void decl(const Stmt& s) {
    if (s.init) mark_used_expr(*s.init);
    if (s.array_extent) {
      mark_used_expr(*s.array_extent);
      long elems = -1;
      Affine ext = affine_of(*s.array_extent);
      if (aff_is_const(ext)) elems = ext.c;
      const int bytes = elem_width(s.type);
      if (s.is_local) {
        out_.locals.push_back({s.name, elems, bytes, s.line});
      } else {
        out_.private_arrays.push_back({s.name, elems, false, s.line});
      }
      BufRef b;
      b.ok = true;
      b.buffer = s.name;
      b.type = s.type;
      b.space = s.is_local ? MemSpace::kLocal : MemSpace::kPrivate;
      b.elem_bytes = bytes;
      buffers_[s.name] = b;
      return;
    }
    if (!s.init) {
      env_[s.name] = Sym{};
      return;
    }
    Sym sym = classify_init(*s.init, s.line);
    if (sym.kind == Sym::Kind::kRowNnz && !sym.begin_seg.empty()) {
      out_.row_nnz.push_back({s.name, sym.buffer, sym.begin_seg});
    }
    env_[s.name] = sym;
  }

  Sym classify_init(const Expr& e, int line) {
    Sym sym;
    // min(TILE_ROWS, omega - base): the staging chunk size.
    if (e.kind == Expr::Kind::kCall && e.name == "min" &&
        e.kids.size() == 2) {
      if (contains_row_nnz(*e.kids[0]) || contains_row_nnz(*e.kids[1])) {
        sym.kind = Sym::Kind::kChunkSize;
        // Record which RowNnz variable and chunked-loop base appear inside
        // `min(TILE_ROWS, omega - base)` so chunk-bounded loops can be
        // linked back to them by the verifier.
        std::set<std::string> ids;
        collect_idents(e, ids);
        for (const auto& id : ids) {
          auto it = env_.find(id);
          if (it == env_.end()) continue;
          if (it->second.kind == Sym::Kind::kRowNnz) sym.nnz_var = id;
          if (it->second.kind == Sym::Kind::kAffine &&
              it->second.aff.ok && it->second.aff.t.size() == 1) {
            const std::string& tag = it->second.aff.t.begin()->first;
            if (tag.rfind("loopvar#", 0) == 0 &&
                it->second.aff.t.begin()->second == 1) {
              sym.chunk_base = std::stol(tag.substr(8));
            }
          }
        }
        return sym;
      }
    }
    // vloadN(offset, ptr): a vector stream variable covering N elements.
    if (e.kind == Expr::Kind::kCall && e.name.rfind("vload", 0) == 0 &&
        e.kids.size() == 2) {
      const long vw = std::stol(e.name.substr(5));
      const BufRef b = resolve_buffer(*e.kids[1]);
      Affine off = affine_of(*e.kids[0]);
      if (!b.ok || !aff_is_const(off)) {
        throw ParseError{line, "unanalyzable vload operand"};
      }
      out_.has_vector_ops = true;
      const bool gathered = b.base.has_prefix("gather#");
      const TrafficIR::Kind kind = b.space == MemSpace::kLocal
                                       ? TrafficIR::Kind::kLocalRead
                                       : TrafficIR::Kind::kGatherTraversal;
      Affine base = b.base;
      base.c = 0;
      Fold& f = folds_[fold_key(b, base, kind) + "|blk"];
      f.kind = kind;
      f.buffer = b.buffer;
      f.elem_bytes = b.elem_bytes;
      f.range_mode = true;
      const long lo = off.c * vw, hi = off.c * vw + vw - 1;
      if (f.hi < f.lo) {
        f.lo = lo;
        f.hi = hi;
      } else {
        f.lo = std::min(f.lo, lo);
        f.hi = std::max(f.hi, hi);
      }
      f.gathered = gathered;
      f.lane_part = in_lane_region();
      f.freq = freq_;
      f.line = line;

      Affine vidx = b.base;
      vidx.c += off.c * vw;
      RefIR ref;
      ref.buffer = b.buffer;
      ref.space = b.space;
      ref.elem_bytes = b.elem_bytes;
      ref.coalescing = classify(vidx);
      ref.lane_coeff = lane_coeff_of(vidx);
      ref.hot = freq_hot();
      ref.lane_partitioned = in_lane_region();
      ref.divergent_guard = divergent_depth_ > 0;
      ref.zero_weight = zero_depth_ > 0;
      ref.loop_depth = static_cast<int>(loops_.size());
      ref.line = line;
      ref.col = e.col;
      ref.index = print(*e.kids[1]) + " + " + std::to_string(off.c * vw);
      ref.affine = aff_export(vidx);
      ref.interval = interval_;
      ref.lane_bound = current_lane_bound();
      ref.vec_elems = static_cast<int>(vw);
      ref.loop_path = current_loop_path();
      out_.refs.push_back(ref);

      sym.kind = Sym::Kind::kStreamVar;
      sym.buffer = b.buffer;
      sym.space = b.space;
      sym.gathered = gathered;
      sym.from_vload = true;
      stream_sources_.insert(b.buffer);
      return sym;
    }
    // (lx < G) ? buf[lx] : 0 — a guarded lane load: one traversal of
    // G·elem bytes per execution (lanes 0..G-1 each take one element).
    if (e.kind == Expr::Kind::kTernary) {
      const Expr& cond = *e.kids[0];
      long guard = 0;
      if (cond.kind == Expr::Kind::kBinary && cond.name == "<") {
        Affine l = affine_of(*cond.kids[0]);
        Affine r = affine_of(*cond.kids[1]);
        if (l.ok && l.coeff("lane") == 1 && aff_is_const(r)) guard = r.c;
      }
      const Expr* load = e.kids[1]->kind == Expr::Kind::kIndex
                             ? e.kids[1].get()
                             : nullptr;
      if (guard > 0 && load) {
        const BufRef b = resolve_buffer(*load->kids[0]);
        if (!b.ok) throw ParseError{line, "unresolvable guarded load"};
        Affine idx = aff_add(b.base, affine_of(*load->kids[1]));
        const bool gathered = classify(idx) == Coalescing::kGathered;

        RefIR ref;
        ref.buffer = b.buffer;
        ref.space = b.space;
        ref.elem_bytes = b.elem_bytes;
        ref.coalescing = b.space == MemSpace::kLocal
                             ? classify(idx)
                             : (gathered ? Coalescing::kGathered
                                         : Coalescing::kUnitStride);
        ref.lane_coeff = lane_coeff_of(idx);
        if (b.space == MemSpace::kLocal) {
          ref.bank_conflict = bank_conflict_of(idx);
        }
        ref.hot = freq_hot();
        ref.divergent_guard = true;
        ref.zero_weight = zero_depth_ > 0;
        ref.loop_depth = static_cast<int>(loops_.size());
        ref.line = line;
        ref.col = load->col;
        ref.index = print(*load->kids[1]);
        ref.affine = aff_export(idx);
        ref.interval = interval_;
        ref.lane_bound = guard;  // lanes >= guard take the 0 arm
        ref.loop_path = current_loop_path();
        out_.refs.push_back(ref);

        if (zero_depth_ == 0) {
          const TrafficIR::Kind kind = b.space == MemSpace::kLocal
                                           ? TrafficIR::Kind::kLocalRead
                                           : TrafficIR::Kind::kGatherTraversal;
          emit_traffic(kind, b.buffer, double(guard) * b.elem_bytes, freq_,
                       in_lane_region(), gathered, line);
        }
        sym.kind = Sym::Kind::kStreamVar;
        sym.buffer = b.buffer;
        sym.space = b.space;
        sym.gathered = gathered;
        sym.guarded = true;
        sym.guard = guard;
        stream_sources_.insert(b.buffer);
        return sym;
      }
    }
    // A scalar load of stream data: flat's `yi = Y[d + i]`, `r = values[..]`.
    // Int loads fall through to the affine path (seg# terms) instead.
    if (e.kind == Expr::Kind::kIndex) {
      const BufRef b = resolve_buffer(*e.kids[0]);
      if (b.ok && is_real_type(b.type)) {
        const Affine idx =
            aff_add(b.base, affine_of_probe(*e.kids[1]));
        emit_access(e, /*is_store=*/false);
        sym.kind = Sym::Kind::kStreamVar;
        sym.buffer = b.buffer;
        sym.space = b.space;
        sym.gathered = classify(idx) == Coalescing::kGathered;
        if (sym.gathered) stream_sources_.insert(b.buffer);
        return sym;
      }
    }
    Affine a = affine_of(e);
    // row_ptr[u + 1] - begin: two unscaled loads of the same segment
    // buffer with coefficients +1/-1 — the row's nonzero count.
    if (a.ok && a.t.size() == 2) {
      std::string plus, minus;
      for (const auto& [k, v] : a.t) {
        if (k.rfind("seg#", 0) == 0 && v == 1) plus = k;
        if (k.rfind("seg#", 0) == 0 && v == -1) minus = k;
      }
      if (!plus.empty() && !minus.empty() &&
          seg_buffer_[plus] == seg_buffer_[minus]) {
        sym.kind = Sym::Kind::kRowNnz;
        sym.buffer = seg_buffer_[minus];
        sym.begin_seg = minus;
        return sym;
      }
    }
    sym.kind = Sym::Kind::kAffine;
    sym.aff = a;
    return sym;
  }

  bool contains_row_nnz(const Expr& e) const {
    if (e.kind == Expr::Kind::kIdent) {
      auto it = env_.find(e.name);
      return it != env_.end() && it->second.kind == Sym::Kind::kRowNnz;
    }
    for (const auto& k : e.kids) {
      if (k && contains_row_nnz(*k)) return true;
    }
    return false;
  }

  // ---- expression statements: stores, loads, accumulation ops ----
  void walk_loads(const Expr& e) {
    if (e.kind == Expr::Kind::kIndex) {
      const BufRef b = resolve_buffer(*e.kids[0]);
      if (b.ok) {
        emit_access(e, /*is_store=*/false);
        walk_loads(*e.kids[1]);
        return;
      }
    }
    for (const auto& k : e.kids) {
      if (k) walk_loads(*k);
    }
  }

  void collect_idents(const Expr& e, std::set<std::string>& out) const {
    if (e.kind == Expr::Kind::kIdent) out.insert(e.name);
    for (const auto& k : e.kids) {
      if (k) collect_idents(*k, out);
    }
  }

  void collect_indexed_buffers(const Expr& e,
                               std::set<std::string>& out) const {
    if (e.kind == Expr::Kind::kIndex) {
      // resolve_buffer is non-const only because affine_of emits; a name
      // walk is enough here.
      const Expr* p = e.kids[0].get();
      while (p) {
        if (p->kind == Expr::Kind::kIdent) {
          out.insert(p->name);
          break;
        }
        if (p->kind == Expr::Kind::kBinary && p->name == "+") {
          // try both sides
          std::set<std::string> dummy;
          const Expr* l = p->kids[0].get();
          if (l->kind == Expr::Kind::kIdent &&
              buffers_.count(l->name) != 0) {
            out.insert(l->name);
            break;
          }
          p = p->kids[1].get();
          continue;
        }
        if (p->kind == Expr::Kind::kCast) {
          p = p->kids[0].get();
          continue;
        }
        break;
      }
    }
    for (const auto& k : e.kids) {
      if (k) collect_indexed_buffers(*k, out);
    }
  }

  bool has_member(const Expr& e) const {
    if (e.kind == Expr::Kind::kMember) return true;
    for (const auto& k : e.kids) {
      if (k && has_member(*k)) return true;
    }
    return false;
  }

  void expr_stmt(const Stmt& s) {
    if (!s.cond) return;
    const Expr& e = *s.cond;
    mark_used_expr(e);
    if (e.kind != Expr::Kind::kBinary ||
        (e.name != "=" && e.name != "+=" && e.name != "-=" &&
         e.name != "*=" && e.name != "/=")) {
      // ++u / bare calls: nothing to price.
      if (e.kind == Expr::Kind::kCall) walk_loads(e);
      return;
    }
    const Expr& lhs = *e.kids[0];
    const Expr& rhs = *e.kids[1];
    walk_loads(rhs);
    if (lhs.kind == Expr::Kind::kIndex) {
      emit_access(lhs, /*is_store=*/true);
    } else if (lhs.kind == Expr::Kind::kMember) {
      // vector component stores don't occur in the generated kernels
    }

    const bool accumulation = e.name == "+=" || e.name == "-=";
    if (!accumulation || zero_depth_ > 0) return;
    const bool hot = freq_hot();
    if (!hot || in_lane_region()) return;

    // Op record: one fma-shaped accumulation per trip.
    std::set<std::string> bufs;
    collect_indexed_buffers(rhs, bufs);
    std::set<std::string> ids;
    collect_idents(rhs, ids);

    bool s1 = false;
    for (const auto& b : bufs) {
      if (stream_sources_.count(b) != 0) s1 = true;
    }
    for (const auto& id : ids) {
      auto it = env_.find(id);
      if (it != env_.end() && it->second.kind == Sym::Kind::kStreamVar &&
          it->second.from_vload) {
        s1 = true;
      }
    }

    OpIR op;
    op.freq = freq_;
    op.ops_per_trip = 1;
    op.vectorized = has_member(e) || out_.has_vector_ops;
    op.s1_class = s1;
    op.line = e.line;
    out_.ops.push_back(op);

    if (lhs.kind == Expr::Kind::kIdent) scalar_accumulators_.insert(lhs.name);

    // Dynamically-indexed private accumulators pay a read+write per
    // accumulation (the Fig. 3a spill behavior).
    if (!out_.private_arrays.empty()) {
      emit_traffic(TrafficIR::Kind::kPrivateUpdate,
                   out_.private_arrays.front().name, 8.0, freq_, false,
                   false, e.line);
    }

    // Replay: consuming a stream variable without re-touching its stream
    // re-traverses the staged/gathered row (the S2 reread).
    for (const auto& id : ids) {
      auto it = env_.find(id);
      if (it == env_.end() || it->second.kind != Sym::Kind::kStreamVar) {
        continue;
      }
      const Sym& v = it->second;
      if (bufs.count(v.buffer) != 0) continue;  // touched directly
      bool vload_same = false;
      for (const auto& id2 : ids) {
        auto it2 = env_.find(id2);
        if (it2 != env_.end() &&
            it2->second.kind == Sym::Kind::kStreamVar &&
            it2->second.from_vload && it2->second.buffer == v.buffer) {
          vload_same = true;
        }
      }
      if (vload_same) continue;
      if (replayed_this_stmt_.count(v.buffer) != 0) continue;
      replayed_this_stmt_.insert(v.buffer);
      const double span =
          (v.guarded ? double(v.guard) : 1.0) *
          (buffers_.count(v.buffer) ? buffers_[v.buffer].elem_bytes : 4);
      const TrafficIR::Kind kind = v.space == MemSpace::kLocal
                                       ? TrafficIR::Kind::kLocalTraversal
                                       : TrafficIR::Kind::kGatherTraversal;
      emit_traffic(kind, v.buffer, span, freq_, false, v.gathered, e.line);
    }
    replayed_this_stmt_.clear();
  }

  // ---- control flow ----
  void if_stmt(const Stmt& s) {
    if (s.cond) mark_used_expr(*s.cond);
    const Expr& c = *s.cond;
    bool zero = false;
    long lane_bound = 0;

    if (c.kind == Expr::Kind::kBinary) {
      const bool lhs_nnz = contains_row_nnz(*c.kids[0]);
      Affine r = affine_of_probe(*c.kids[1]);
      // Empty-row early exit: omega == 0 / <= 0 / < 0.
      if (lhs_nnz && (c.name == "==" || c.name == "<=" || c.name == "<") &&
          aff_is_const(r) && r.c == 0) {
        zero = true;
      }
      // Launch guard: row id >= row-count parameter, body exits.
      Affine l = affine_of_probe(*c.kids[0]);
      if (!zero && c.name == ">=" && l.ok && l.coeff("row") == 1 &&
          body_exits(s.body)) {
        zero = true;
        out_.row_bounded = true;
        if (c.kids[1]->kind == Expr::Kind::kIdent) {
          out_.row_bound_var = c.kids[1]->name;
        }
      }
      // `if (lane < C)` bounds the lane id of every reference in the body.
      if (c.name == "<" && l.ok && l.c == 0 && l.t.size() == 1 &&
          l.coeff("lane") == 1 && aff_is_const(r) && r.c > 0) {
        lane_bound = r.c;
      }
    }

    // Empty-row and launch-guard exits are not lane guards.
    const bool divergent = !zero && lane_dependent(c);

    // `if (lx == 0) cholesky_solve_inplace(smat, svec);` — the single-lane
    // solve; its flops are priced by the profile, not per statement.
    if (divergent && c.kind == Expr::Kind::kBinary && c.name == "==" &&
        s.else_body.empty() && s.body.size() == 1 &&
        s.body[0]->kind == Stmt::Kind::kExpr &&
        s.body[0]->cond && s.body[0]->cond->kind == Expr::Kind::kCall) {
      const Expr& call = *s.body[0]->cond;
      if (call.name != "barrier" && call.name.rfind("get_", 0) != 0) {
        out_.has_lane0_solve = true;
        mark_used_expr(call);
        return;
      }
    }

    // An exit under a lane test, launch guards included, is one only some
    // lanes take (lane_exit).
    const bool lane_branch = lane_dependent(c);
    if (zero) ++zero_depth_;
    if (divergent) ++divergent_depth_;
    if (lane_branch) ++lane_branch_depth_;
    if (lane_bound > 0) lane_bound_stack_.push_back(lane_bound);
    stmt_list(s.body);
    if (lane_bound > 0) lane_bound_stack_.pop_back();
    if (zero) --zero_depth_;
    stmt_list(s.else_body);  // the other lanes: just as divergent
    if (lane_branch) --lane_branch_depth_;
    if (divergent) --divergent_depth_;
  }

  /// affine_of without load side effects (conditions and loop headers only
  /// compare already-declared values in the generated kernels).
  Affine affine_of_probe(const Expr& e) { return affine_of(e, false); }

  bool body_exits(const std::vector<StmtPtr>& body) const {
    for (const auto& s : body) {
      if (s && (s->kind == Stmt::Kind::kReturn ||
                s->kind == Stmt::Kind::kContinue)) {
        return true;
      }
    }
    return false;
  }

  void for_stmt(const Stmt& s) {
    if (!s.for_init || !s.cond || !s.step) {
      throw ParseError{s.line, "for loop without init/cond/step"};
    }
    // Loop variable + init expression.
    std::string var;
    const Expr* init = nullptr;
    if (s.for_init->kind == Stmt::Kind::kDecl) {
      var = s.for_init->name;
      init = s.for_init->init.get();
    } else if (s.for_init->kind == Stmt::Kind::kExpr && s.for_init->cond &&
               s.for_init->cond->kind == Expr::Kind::kBinary &&
               s.for_init->cond->name == "=") {
      var = s.for_init->cond->kids[0]->name;
      init = s.for_init->cond->kids[1].get();
    }
    if (var.empty() || !init) {
      throw ParseError{s.line, "unrecognized for-loop initializer"};
    }
    mark_used_expr(*init);
    mark_used_expr(*s.cond);

    // Condition: var < bound  (or var >= bound for down loops).
    const Expr& c = *s.cond;
    if (c.kind != Expr::Kind::kBinary ||
        c.kids[0]->kind != Expr::Kind::kIdent || c.kids[0]->name != var) {
      throw ParseError{s.line, "for-loop condition is not `var < bound`"};
    }
    const Expr& bound = *c.kids[1];

    // Step: ++var / --var / var += S.
    long step_c = 0;          // constant step (0 = unknown)
    bool step_down = false;
    Affine step_aff = aff_unknown();
    if (s.step->kind == Expr::Kind::kUnary &&
        (s.step->name == "++" || s.step->name == "--")) {
      step_c = 1;
      step_down = s.step->name == "--";
    } else if (s.step->kind == Expr::Kind::kBinary && s.step->name == "+=") {
      step_aff = affine_of_probe(*s.step->kids[1]);
      if (aff_is_const(step_aff)) step_c = step_aff.c;
    }

    const Affine init_aff = affine_of_probe(*init);
    const Affine bound_aff = affine_of_probe(bound);

    LoopFrame frame;
    frame.var = var;
    frame.id = loop_id_++;
    Freq mult;  // multiplicity the body gains

    const Sym* bound_sym = nullptr;
    if (bound.kind == Expr::Kind::kIdent) {
      auto it = env_.find(bound.name);
      if (it != env_.end()) bound_sym = &it->second;
    }

    if (init_aff.ok && init_aff.coeff("group") == 1 &&
        step_aff.ok && step_aff.coeff("ngroups") == 1) {
      // for (u = group; u < rows; u += stride): every group-count stride
      // covers each row once per launch.
      frame.kind = LoopIR::Kind::kRowStride;
      mult.per_row = 1;
      env_[var] = make_affine_sym(aff_term("row"));
      out_.row_bounded = true;
      if (bound.kind == Expr::Kind::kIdent) {
        out_.row_bound_var = bound.name;
      }
    } else if (init_aff.ok && init_aff.c == 0 &&
               init_aff.coeff("lane") == 1 && step_c > 1) {
      frame.kind = LoopIR::Kind::kLanePart;
      if (aff_is_const(bound_aff) && bound_aff.c > 0) {
        frame.lane_span = bound_aff.c;
        frame.trips = bound_aff.c;  // elements covered cooperatively
      } else if (bound_sym && bound_sym->kind == Sym::Kind::kChunkSize) {
        frame.lane_region = true;
        mult.chunk_body = 1;  // per staged element
      } else if (bound_sym && bound_sym->kind == Sym::Kind::kRowNnz) {
        frame.lane_region = true;
        mult.per_nnz = 1;
      } else {
        throw ParseError{s.line, "lane-partitioned loop with an "
                                 "unclassifiable bound"};
      }
      env_[var] = make_affine_sym(aff_add(
          aff_term("lane"), aff_term("lpvar#" + std::to_string(frame.id))));
    } else if (bound_sym && bound_sym->kind == Sym::Kind::kRowNnz &&
               step_c == 1 && !step_down) {
      frame.kind = LoopIR::Kind::kNnz;
      mult.per_nnz = 1;
      env_[var] = make_affine_sym(
          aff_term("loopvar#" + std::to_string(frame.id)));
    } else if (bound_sym && bound_sym->kind == Sym::Kind::kRowNnz &&
               step_c > 1) {
      frame.kind = LoopIR::Kind::kChunked;
      mult.per_chunk = 1;
      env_[var] = make_affine_sym(
          aff_term("loopvar#" + std::to_string(frame.id)));
    } else if (bound_sym && bound_sym->kind == Sym::Kind::kChunkSize &&
               step_c == 1 && !step_down) {
      frame.kind = LoopIR::Kind::kChunkBody;
      mult.chunk_body = 1;
      env_[var] = make_affine_sym(
          aff_term("loopvar#" + std::to_string(frame.id)));
    } else if (step_c == 1 && step_down && c.name == ">=" &&
               aff_is_const(init_aff)) {
      // for (i = K - 1; i >= 0; --i)
      frame.kind = LoopIR::Kind::kFixed;
      frame.trips = static_cast<double>(init_aff.c + 1);
      frame.avg_value = init_aff.c / 2.0;
      mult.factor = std::max(frame.trips, 0.0);
      env_[var] = make_affine_sym(
          aff_term("loopvar#" + std::to_string(frame.id)));
    } else if (step_c == 1 && !step_down &&
               (c.name == "<" || c.name == "<=")) {
      // Fixed / triangular loops: trips = avg(bound) - avg(init).
      double b_avg = 0, i_avg = 0;
      if (!avg_of(bound_aff, b_avg) || !avg_of(init_aff, i_avg)) {
        throw ParseError{s.line, "for-loop bound is not a compile-time "
                                 "constant or loop variable"};
      }
      if (c.name == "<=") b_avg += 1;
      frame.kind = LoopIR::Kind::kFixed;
      frame.trips = std::max(b_avg - i_avg, 0.0);
      frame.avg_value = i_avg + (frame.trips - 1) / 2.0;
      mult.factor = frame.trips;
      env_[var] = make_affine_sym(
          aff_term("loopvar#" + std::to_string(frame.id)));
    } else {
      throw ParseError{s.line, "unclassifiable loop form"};
    }

    LoopIR lir;
    lir.kind = frame.kind;
    lir.trips = frame.trips;
    lir.bound = print(bound);
    lir.line = s.line;
    lir.depth = static_cast<int>(loops_.size());
    lir.id = frame.id;
    lir.step = step_c > 0 ? step_c : 1;
    lir.step_down = step_down;
    lir.bound_inclusive = c.name == "<=";
    lir.init_affine = aff_export(init_aff);
    lir.bound_affine = aff_export(bound_aff);
    if (bound.kind == Expr::Kind::kIdent) lir.bound_var = bound.name;
    lir.lane_span = frame.lane_span;
    lir.lane_region = frame.lane_region;
    if (bound_sym) {
      if (bound_sym->kind == Sym::Kind::kRowNnz) {
        lir.nnz_var = bound.name;
      } else if (bound_sym->kind == Sym::Kind::kChunkSize) {
        lir.nnz_var = bound_sym->nnz_var;
        lir.chunk_link = bound_sym->chunk_base;
      }
    }
    lir.entry_interval = interval_;
    const std::size_t lir_idx = out_.loops.size();
    out_.loops.push_back(lir);

    const Freq saved = freq_;
    const bool lane_loop = loop_diverges(s);
    freq_ = freq_.times(mult);
    frame.first_barrier = out_.barriers.size();
    loops_.push_back(frame);
    if (lane_loop) ++lane_loop_depth_;
    stmt_list(s.body);
    if (lane_loop) --lane_loop_depth_;
    flush_folds();
    loops_.pop_back();
    freq_ = saved;
    env_.erase(var);

    out_.loops[lir_idx].exit_interval = interval_;
    out_.loops[lir_idx].body_has_barrier =
        interval_ != out_.loops[lir_idx].entry_interval;
  }

  /// Mean value of an affine over enclosing fixed loops (for triangular
  /// trip counts). False when a non-fixed symbol appears.
  bool avg_of(const Affine& a, double& out) const {
    if (!a.ok) return false;
    double v = a.c;
    for (const auto& [k, coeff] : a.t) {
      if (coeff == 0) continue;
      if (k.rfind("loopvar#", 0) != 0) return false;
      bool found = false;
      for (const auto& f : loops_) {
        if ("loopvar#" + std::to_string(f.id) == k &&
            f.kind == LoopIR::Kind::kFixed) {
          v += coeff * f.avg_value;
          found = true;
        }
      }
      if (!found) return false;
    }
    out = v;
    return true;
  }

  Sym make_affine_sym(const Affine& a) {
    Sym s;
    s.kind = Sym::Kind::kAffine;
    s.aff = a;
    return s;
  }

  const TranslationUnit& tu_;
  const FunctionDecl& fn_;
  KernelIR out_;

  std::map<std::string, Sym> env_;
  std::map<std::string, BufRef> buffers_;
  std::map<std::string, std::string> seg_buffer_;
  std::set<std::string> stream_sources_;
  std::set<std::string> scalar_accumulators_;
  std::set<std::string> replayed_this_stmt_;
  std::map<std::string, Fold> folds_;
  std::vector<LoopFrame> loops_;
  std::vector<long> lane_bound_stack_;
  std::set<std::string> lane_vars_;  // lane-dependent variables
  Freq freq_;
  int divergent_depth_ = 0;   // lane-divergent if/else branches
  int lane_branch_depth_ = 0; // branches on a lane test, guards included
  int lane_loop_depth_ = 0;   // loops whose trip count varies across lanes
  bool lane_return_ = false;  // a lane-divergent return was lowered
  int zero_depth_ = 0;
  int interval_ = 0;
  int order_ = 0;
  long seg_id_ = 0;
  long gather_id_ = 0;
  long loop_id_ = 0;
};

}  // namespace

std::vector<KernelIR> lower_kernels(const TranslationUnit& tu) {
  std::vector<KernelIR> out;
  for (const auto& fn : tu.functions) {
    if (!fn.is_kernel) continue;
    KernelLowerer low(tu, fn);
    out.push_back(low.run());
  }
  return out;
}

}  // namespace alsmf::ocl::analyze
