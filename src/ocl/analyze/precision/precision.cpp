#include "ocl/analyze/precision/precision.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "ocl/analyze/parser.hpp"

namespace alsmf::ocl::analyze::precision {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseError{line, "precision: " + msg};
}

bool is_narrow_type(const std::string& t) {
  return t == "storage_t" || t == "half" || t == "bfloat16";
}

bool is_real_like(const std::string& t) {
  return t == "real_t" || t == "float" || t == "double" || is_narrow_type(t);
}

/// Does any expression under `e` call `name`?
bool expr_calls(const Expr& e, const char* name) {
  if (e.kind == Expr::Kind::kCall && e.name == name) return true;
  for (const auto& k : e.kids) {
    if (k && expr_calls(*k, name)) return true;
  }
  return false;
}

bool stmt_calls(const Stmt& s, const char* name) {
  for (const ExprPtr* e : {&s.cond, &s.step, &s.init, &s.array_extent}) {
    if (*e && expr_calls(**e, name)) return true;
  }
  if (s.for_init && stmt_calls(*s.for_init, name)) return true;
  for (const auto& b : s.body) {
    if (b && stmt_calls(*b, name)) return true;
  }
  for (const auto& b : s.else_body) {
    if (b && stmt_calls(*b, name)) return true;
  }
  return false;
}

/// The walker's value: a numeric abstraction or a pointer to a named
/// array/buffer (pointer offsets don't matter — targets are summarized).
struct PVal {
  AVal num = AVal::constant(0);
  bool is_ptr = false;
  std::string target;
};

struct ArrState {
  AVal sum = AVal::constant(0);  // element summary (join of all stores)
  bool narrow = false;           // declared in a narrow storage type
  FloatFormat fmt;
};

struct BufState {
  AVal range = AVal::constant(0);  // load abstraction (inputs)
  bool narrow = false;
  FloatFormat fmt;                 // storage format of the elements
  bool is_real = false;
  bool written = false;
  AVal out = AVal::constant(0);    // join of stores
};

class Walker {
 public:
  Walker(const TranslationUnit& tu, const KernelIR& ir,
         const PrecisionAssumptions& as)
      : tu_(tu), ir_(ir), as_(as) {
    compute_ = fp32_format();
    if (!tu.storage_t_base.empty()) {
      if (!format_for_type(tu.storage_t_base, "", storage_)) {
        fail(0, "unknown storage_t base '" + tu.storage_t_base + "'");
      }
    } else {
      storage_ = fp32_format();
    }
  }

  PrecisionReport run() {
    const FunctionDecl* fn = nullptr;
    for (const auto& f : tu_.functions) {
      if (f.is_kernel && f.name == ir_.name) fn = &f;
    }
    if (!fn) fail(0, "kernel '" + ir_.name + "' not in translation unit");

    rep_.kernel = ir_.name;
    rep_.storage = storage_.name;
    rep_.assumptions = as_;

    for (const auto& p : fn->params) bind_param(p);
    walk_list(fn->body);

    rep_.certified = true;
    for (const auto& f : rep_.findings) {
      if (gates_certification(f.kind)) rep_.certified = false;
    }
    return rep_;
  }

 private:
  const TranslationUnit& tu_;
  const KernelIR& ir_;
  PrecisionAssumptions as_;
  PrecisionReport rep_;
  FloatFormat compute_;  // the accumulation format (real_t)
  FloatFormat storage_;  // the factor-buffer storage format

  std::map<std::string, PVal> vars_;
  std::map<std::string, ArrState> arrays_;
  std::map<std::string, BufState> bufs_;
  double loop_mult_ = 1.0;  // trip product of the open loop nest

  static AVal int_range(double lo, double hi) { return AVal::range(lo, hi); }

  void bind_param(const ParamDecl& p) {
    if (p.is_pointer && is_real_like(p.type)) {
      BufState b;
      b.is_real = true;
      b.narrow = is_narrow_type(p.type);
      b.fmt = compute_;
      if (b.narrow && !format_for_type(p.type, tu_.storage_t_base, b.fmt)) {
        fail(p.line, "unknown narrow type '" + p.type + "'");
      }
      // Input envelopes by role: ratings are bounded by R, factor rows by
      // F; anything else gets the wider of the two. The output buffer is
      // also readable (warm starts), same envelope as factors.
      const double r = as_.rating_bound;
      const double f = as_.factor_bound;
      const double bound = p.name == "values" ? r
                           : (p.name == "Y" || p.name == "X") ? f
                                                              : std::max(r, f);
      AVal range = AVal::range(-bound, bound);
      if (b.narrow) {
        // Values arrive already rounded into storage; charge the
        // quantization error (and surface overflow if the envelope itself
        // cannot be stored — it can, for any sane assumption set).
        range = do_quantize(range, b.fmt, p.line, p.name);
      }
      b.range = range;
      bufs_[p.name] = b;
      return;
    }
    if (p.is_pointer) {  // int buffer: loads yield nonnegative indices
      BufState b;
      b.is_real = false;
      b.range = int_range(0, 1e18);
      bufs_[p.name] = b;
      return;
    }
    PVal v;
    if (is_real_like(p.type)) {
      v.num = p.name == "lambda" ? AVal::range(as_.lambda_min, as_.lambda_max)
                                 : AVal::range(-1e18, 1e18);
    } else {
      v.num = int_range(0, 1e18);
    }
    vars_[p.name] = v;
  }

  // --- findings ---

  void add_finding(PrecisionFinding::Kind kind, int line,
                   const std::string& what, const AVal& v,
                   const std::string& msg) {
    for (const auto& f : rep_.findings) {
      if (f.kind == kind && f.line == line && f.what == what) return;
    }
    PrecisionFinding f;
    f.kind = kind;
    f.line = line;
    f.what = what;
    f.lo = v.lo;
    f.hi = v.hi;
    f.err = v.err;
    f.message = msg;
    rep_.findings.push_back(std::move(f));
  }

  AVal do_quantize(const AVal& v, const FloatFormat& fmt, int line,
                   const std::string& what) {
    const Quantized q = quantize(v, fmt);
    if (q.overflow_possible) {
      std::ostringstream os;
      os << "interval [" << v.lo << ", " << v.hi << "] can exceed " << fmt.name
         << " finite ceiling " << fmt.max_finite;
      add_finding(PrecisionFinding::Kind::kOverflowPossible, line, what, v,
                  os.str());
    }
    if (q.subnormal_possible) {
      ++rep_.subnormal_flush_points;
      add_finding(PrecisionFinding::Kind::kSubnormalFlush, line, what, v,
                  std::string(fmt.name) +
                      " flush-to-zero can lose values below its normal range");
    }
    return q.val;
  }

  // --- loop trip counts via the access IR ---

  double trips_for(const Stmt& s) const {
    const double omega = as_.omega_max;
    const double tile =
        ir_.tile_rows_define > 0 ? static_cast<double>(ir_.tile_rows_define)
                                 : omega;
    const double ws = ir_.ws > 0 ? static_cast<double>(ir_.ws) : 1;
    for (const auto& l : ir_.loops) {
      if (l.line != s.line) continue;
      switch (l.kind) {
        case LoopIR::Kind::kRowStride:
          return 1;  // the certificate is per worst-case row
        case LoopIR::Kind::kNnz:
          return omega;
        case LoopIR::Kind::kChunked:
          return std::ceil(omega / tile);
        case LoopIR::Kind::kChunkBody:
          return tile;
        case LoopIR::Kind::kLanePart:
          if (l.lane_region) return std::ceil(std::min(omega, tile) / ws);
          if (l.lane_span > 0) {
            return std::ceil(static_cast<double>(l.lane_span) / ws);
          }
          return 1;
        case LoopIR::Kind::kFixed:
          return l.trips;
      }
    }
    // Not in the table (a while loop, or a corpus mutation the lowering
    // classified differently): assume the worst symbolic count.
    return omega;
  }

  // --- the solve contract ---

  /// ‖x‖₂ ≤ R·sqrt(ω_max/λ_min): minimizing the ridge objective from x=0.
  double solution_bound() const {
    return as_.rating_bound * std::sqrt(as_.omega_max / as_.lambda_min);
  }

  AVal solve_contract(const AVal& a_sum, const AVal& b_sum) {
    const double k = ir_.k > 0 ? static_cast<double>(ir_.k) : 1;
    const double bx = solution_bound();
    const double max_a = a_sum.maxabs();
    const double max_b = b_sum.maxabs();
    AVal x = AVal::range(-bx, bx);
    x.err = (k * a_sum.err * bx + b_sum.err) / as_.lambda_min +
            k * k * compute_.unit_roundoff * (max_a * bx + max_b) /
                as_.lambda_min;
    x.nan_possible = a_sum.nan_possible || b_sum.nan_possible;
    rep_.solve_contract_applied = true;
    return x;
  }

  /// Lane-0 helper call `*_solve_inplace(a, b)`: b becomes the solution.
  void apply_call_contract(const Expr& call) {
    std::string a_name, b_name;
    if (call.kids.size() >= 2) {
      if (call.kids[0]->kind == Expr::Kind::kIdent) a_name = call.kids[0]->name;
      if (call.kids[1]->kind == Expr::Kind::kIdent) b_name = call.kids[1]->name;
    }
    AVal a_sum = a_name.empty() ? AVal::range(-1e18, 1e18)
                                : arrays_[a_name].sum;
    AVal b_sum = b_name.empty() ? AVal::range(-1e18, 1e18)
                                : arrays_[b_name].sum;
    const AVal x = solve_contract(a_sum, b_sum);
    if (!b_name.empty()) arrays_[b_name].sum = x;
    // The factorization overwrites `a` with magnitudes bounded by the
    // original matrix (Cholesky factors of an SPD matrix).
    if (!a_name.empty()) {
      const double m = a_sum.maxabs();
      arrays_[a_name].sum = AVal::range(-m, m, a_sum.err);
    }
  }

  /// Inline factorization (flat): every k×k-sized real array plays
  /// the matrix, every k-sized one the rhs/solution.
  void apply_inline_contract() {
    const long kk = ir_.k * ir_.k;
    AVal a_sum = AVal::constant(0), b_sum = AVal::constant(0);
    for (const auto& pa : ir_.private_arrays) {
      auto it = arrays_.find(pa.name);
      if (it == arrays_.end()) continue;
      (pa.elems == kk ? a_sum : b_sum) =
          (pa.elems == kk ? a_sum : b_sum).join(it->second.sum);
    }
    const AVal x = solve_contract(a_sum, b_sum);
    for (const auto& pa : ir_.private_arrays) {
      auto it = arrays_.find(pa.name);
      if (it == arrays_.end()) continue;
      if (pa.elems == kk) {
        const double m = a_sum.maxabs();
        it->second.sum = AVal::range(-m, m, a_sum.err);
      } else {
        it->second.sum = x;
      }
    }
  }

  bool stmt_has_global_store(const Stmt& s) const {
    if (s.kind == Stmt::Kind::kExpr && s.cond) {
      if (expr_global_store(*s.cond)) return true;
    }
    for (const auto& b : s.body) {
      if (b && stmt_has_global_store(*b)) return true;
    }
    for (const auto& b : s.else_body) {
      if (b && stmt_has_global_store(*b)) return true;
    }
    return false;
  }

  bool expr_global_store(const Expr& e) const {
    if (e.kind == Expr::Kind::kBinary &&
        (e.name == "=" || e.name == "+=" || e.name == "-=")) {
      const Expr& lhs = *e.kids[0];
      if (lhs.kind == Expr::Kind::kIndex) {
        const Expr* base = lhs.kids[0].get();
        while (base->kind == Expr::Kind::kBinary) base = base->kids[0].get();
        if (base->kind == Expr::Kind::kIdent &&
            bufs_.count(base->name) != 0 && bufs_.at(base->name).is_real) {
          return true;
        }
      }
    }
    for (const auto& k : e.kids) {
      if (k && expr_global_store(*k)) return true;
    }
    return false;
  }

  // --- statement walk ---

  void walk_list(const std::vector<StmtPtr>& body) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      const Stmt& s = *body[i];
      // The inline-solve contract region: from the first statement that
      // computes a sqrt (the Cholesky pivot) up to the output store. The
      // substitution loops inside it are certified by the analytic
      // contract, not interval-followed (their division chains have no
      // useful interval bound).
      if (!ir_.has_lane0_solve && stmt_calls(s, "sqrt")) {
        apply_inline_contract();
        while (i < body.size() && !stmt_has_global_store(*body[i])) ++i;
        if (i < body.size()) walk_stmt(*body[i]);
        continue;
      }
      walk_stmt(s);
    }
  }

  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kDecl:
        walk_decl(s);
        return;
      case Stmt::Kind::kExpr:
        if (s.cond) eval(*s.cond);
        return;
      case Stmt::Kind::kIf:
        // Both branches walked from the shared abstraction; all updates
        // inside use join/accumulate semantics, so order doesn't matter.
        walk_list(s.body);
        walk_list(s.else_body);
        return;
      case Stmt::Kind::kFor:
      case Stmt::Kind::kWhile: {
        if (s.for_init) walk_stmt(*s.for_init);
        const double n = trips_for(s);
        const double saved = loop_mult_;
        loop_mult_ = saved * std::max(1.0, n);
        walk_list(s.body);
        if (s.step) eval(*s.step);
        loop_mult_ = saved;
        return;
      }
      case Stmt::Kind::kBlock:
        walk_list(s.body);
        return;
      case Stmt::Kind::kReturn:
      case Stmt::Kind::kContinue:
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kBarrier:
        return;
    }
  }

  void walk_decl(const Stmt& s) {
    if (s.array_extent) {
      ArrState a;
      a.narrow = is_narrow_type(s.type);
      a.fmt = compute_;
      if (a.narrow) format_for_type(s.type, tu_.storage_t_base, a.fmt);
      arrays_[s.name] = a;
      return;
    }
    PVal v;
    if (s.init) {
      v = eval(*s.init);
    } else {
      v.num = AVal::constant(0);
    }
    if (is_narrow_type(s.type) && !v.is_ptr) {
      // A narrow-typed scalar: everything assigned to it rounds through
      // the narrow format (this is how a narrowed-accumulator defect
      // becomes visible to the certifier).
      FloatFormat fmt = compute_;
      format_for_type(s.type, tu_.storage_t_base, fmt);
      v.num = do_quantize(v.num, fmt, s.line, s.name);
      narrow_vars_[s.name] = fmt;
    }
    vars_[s.name] = v;
  }

  std::map<std::string, FloatFormat> narrow_vars_;

  // --- expression evaluation ---

  PVal eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: {
        PVal v;
        v.num = AVal::constant(static_cast<double>(e.ival));
        return v;
      }
      case Expr::Kind::kFloatLit: {
        PVal v;
        v.num = AVal::constant(std::strtod(e.name.c_str(), nullptr));
        return v;
      }
      case Expr::Kind::kIdent:
        return eval_ident(e);
      case Expr::Kind::kUnary:
        return eval_unary(e);
      case Expr::Kind::kBinary:
        return eval_binary(e);
      case Expr::Kind::kTernary: {
        eval(*e.kids[0]);
        const PVal a = eval(*e.kids[1]);
        const PVal b = eval(*e.kids[2]);
        PVal v;
        if (a.is_ptr) return a;
        v.num = a.num.join(b.num);
        return v;
      }
      case Expr::Kind::kCall:
        return eval_call(e);
      case Expr::Kind::kIndex: {
        const PVal base = eval(*e.kids[0]);
        eval(*e.kids[1]);
        return load_target(base, e.line);
      }
      case Expr::Kind::kMember:
        return eval(*e.kids[0]);  // vector components share the summary
      case Expr::Kind::kCast: {
        PVal v = eval(*e.kids[0]);
        if (is_narrow_type(e.name) && !v.is_ptr) {
          FloatFormat fmt = compute_;
          format_for_type(e.name, tu_.storage_t_base, fmt);
          v.num = do_quantize(v.num, fmt, e.line, "(cast)");
        }
        return v;
      }
    }
    fail(e.line, "unsupported expression");
  }

  PVal eval_ident(const Expr& e) {
    auto v = vars_.find(e.name);
    if (v != vars_.end()) return v->second;
    if (arrays_.count(e.name) != 0 || bufs_.count(e.name) != 0) {
      PVal p;
      p.is_ptr = true;
      p.target = e.name;
      return p;
    }
    auto d = tu_.defines.find(e.name);
    if (d != tu_.defines.end()) {
      PVal p;
      p.num = AVal::constant(std::strtod(d->second.c_str(), nullptr));
      return p;
    }
    // Unknown identifier (a launch-shape symbol): wide but finite.
    PVal p;
    p.num = int_range(0, 1e18);
    return p;
  }

  PVal load_target(const PVal& base, int line) {
    if (!base.is_ptr) fail(line, "indexing a non-pointer abstraction");
    PVal v;
    auto b = bufs_.find(base.target);
    if (b != bufs_.end()) {
      v.num = b->second.range;
      return v;
    }
    auto a = arrays_.find(base.target);
    if (a != arrays_.end()) {
      v.num = a->second.sum;
      return v;
    }
    fail(line, "unknown pointer target '" + base.target + "'");
  }

  PVal eval_unary(const Expr& e) {
    PVal v = eval(*e.kids[0]);
    if (e.name == "-") {
      v.num = neg(v.num);
      return v;
    }
    if (e.name == "!") {
      v.num = int_range(0, 1);
      return v;
    }
    return v;  // ++/--: loop-variable updates, values untracked
  }

  PVal eval_binary(const Expr& e) {
    const std::string& op = e.name;
    if (op == "=" || op == "+=" || op == "-=" || op == "*=" || op == "/=") {
      return eval_assign(e);
    }
    const PVal a = eval(*e.kids[0]);
    const PVal b = eval(*e.kids[1]);
    PVal v;
    if (a.is_ptr || b.is_ptr) return a.is_ptr ? a : b;  // pointer offset
    if (op == "<" || op == "<=" || op == ">" || op == ">=" || op == "==" ||
        op == "!=" || op == "&&" || op == "||") {
      v.num = int_range(0, 1);
      return v;
    }
    if (op == "+") v.num = add(a.num, b.num, compute_);
    else if (op == "-") v.num = sub(a.num, b.num, compute_);
    else if (op == "*") v.num = mul(a.num, b.num, compute_);
    else if (op == "/") v.num = div(a.num, b.num, compute_);
    else if (op == "%") v.num = a.num;  // index arithmetic, values untracked
    else fail(e.line, "unsupported operator '" + op + "'");
    return v;
  }

  PVal eval_assign(const Expr& e) {
    const std::string& op = e.name;
    const Expr& lhs = *e.kids[0];
    const PVal rhs = eval(*e.kids[1]);

    if (lhs.kind == Expr::Kind::kIdent) {
      auto it = vars_.find(lhs.name);
      if (it == vars_.end()) {
        vars_[lhs.name] = rhs;
        return rhs;
      }
      if (rhs.is_ptr) {
        it->second = rhs;
        return rhs;
      }
      it->second.num = combined(it->second.num, rhs.num, op, e.line);
      auto nf = narrow_vars_.find(lhs.name);
      if (nf != narrow_vars_.end()) {
        // Every store into a narrow variable rounds; under a loop the
        // rounding recurs once per trip.
        AVal q = do_quantize(it->second.num, nf->second, e.line, lhs.name);
        q.err += (loop_mult_ - 1) *
                 std::max(nf->second.unit_roundoff * q.maxabs(),
                          nf->second.min_normal);
        it->second.num = q;
      }
      return it->second;
    }
    if (lhs.kind != Expr::Kind::kIndex) {
      fail(e.line, "unsupported assignment target");
    }
    const PVal base = eval(*lhs.kids[0]);
    eval(*lhs.kids[1]);
    if (!base.is_ptr) fail(e.line, "assignment through a non-pointer");

    auto bi = bufs_.find(base.target);
    if (bi != bufs_.end()) {
      // A store to a global buffer: the certified output point.
      AVal v = rhs.num;
      if (op != "=") {
        v = combined(bi->second.out, rhs.num, op, e.line);
      }
      if (bi->second.is_real) {
        v = do_quantize(v, bi->second.fmt, e.line, base.target);
        record_output(base.target, bi->second, v, e.line);
      }
      bi->second.written = true;
      bi->second.out = bi->second.written ? bi->second.out.join(v) : v;
      PVal r;
      r.num = v;
      return r;
    }
    auto ai = arrays_.find(base.target);
    if (ai == arrays_.end()) {
      fail(e.line, "unknown store target '" + base.target + "'");
    }
    AVal v;
    if (op == "+=" || op == "-=") {
      const AVal inc = op == "+=" ? rhs.num : neg(rhs.num);
      v = accumulate(ai->second.sum, inc, loop_mult_, compute_);
    } else if (op == "=") {
      v = ai->second.sum.join(rhs.num);
    } else {
      v = ai->second.sum.join(combined(ai->second.sum, rhs.num, op, e.line));
    }
    if (ai->second.narrow) {
      v = do_quantize(v, ai->second.fmt, e.line, base.target);
      v.err += (loop_mult_ - 1) *
               std::max(ai->second.fmt.unit_roundoff * v.maxabs(),
                        ai->second.fmt.min_normal);
    }
    ai->second.sum = v;
    PVal r;
    r.num = v;
    return r;
  }

  AVal combined(const AVal& old, const AVal& rhs, const std::string& op,
                int line) {
    if (op == "=") return old.join(rhs);  // flow-insensitive: keep the hull
    if (op == "+=") return accumulate(old, rhs, loop_mult_, compute_);
    if (op == "-=") return accumulate(old, neg(rhs), loop_mult_, compute_);
    if (op == "*=") return old.join(mul(old, rhs, compute_));
    if (op == "/=") return old.join(div(old, rhs, compute_));
    fail(line, "unsupported compound assignment '" + op + "'");
  }

  void record_output(const std::string& buffer, const BufState& b,
                     const AVal& v, int line) {
    if (rep_.output_buffer.empty()) {
      rep_.output_buffer = buffer;
      rep_.output_ceiling = b.fmt.max_finite;
      rep_.output = v;
    } else if (rep_.output_buffer == buffer) {
      rep_.output = rep_.output.join(v);
    }
    if (v.nan_possible) {
      add_finding(PrecisionFinding::Kind::kNanPossible, line, buffer, v,
                  "a NaN can reach the certified output store");
    }
    if (!(v.err < std::numeric_limits<double>::infinity())) {
      add_finding(PrecisionFinding::Kind::kUnboundedError, line, buffer, v,
                  "the rounding-error bound diverged before the output store");
    }
  }

  PVal eval_call(const Expr& e) {
    const std::string& name = e.name;
    PVal v;
    if (name == "get_local_id") {
      v.num = int_range(0, std::max<long>(0, ir_.ws - 1));
      return v;
    }
    if (name == "get_group_id" || name == "get_num_groups" ||
        name == "get_global_id" || name == "get_local_size") {
      v.num = int_range(0, 1e18);
      return v;
    }
    if (name == "min" || name == "max") {
      const PVal a = eval(*e.kids[0]);
      const PVal b = eval(*e.kids[1]);
      v.num = name == "min" ? min_op(a.num, b.num) : max_op(a.num, b.num);
      return v;
    }
    if (name == "sqrt") {
      v.num = sqrt_op(eval(*e.kids[0]).num, compute_);
      return v;
    }
    if (name == "fabs") {
      v.num = fabs_op(eval(*e.kids[0]).num);
      return v;
    }
    if (name == "barrier") return v;
    if (name.rfind("vload", 0) == 0) {
      eval(*e.kids[0]);
      const PVal p = eval(*e.kids[1]);
      PVal r = load_target(p, e.line);
      if (!p.is_ptr) fail(e.line, "vload from a non-pointer");
      return r;
    }
    // An in-file helper: the lane-0 solve. Anything else in the subset
    // would have been rejected by the parser already.
    for (const auto& fn : tu_.functions) {
      if (fn.name == name && !fn.is_kernel) {
        apply_call_contract(e);
        return v;
      }
    }
    fail(e.line, "unknown function '" + name + "'");
  }
};

}  // namespace

bool gates_certification(PrecisionFinding::Kind kind) {
  switch (kind) {
    case PrecisionFinding::Kind::kOverflowPossible:
    case PrecisionFinding::Kind::kNanPossible:
    case PrecisionFinding::Kind::kUnboundedError:
      return true;
    case PrecisionFinding::Kind::kSubnormalFlush:
      return false;
  }
  return true;
}

const char* to_string(PrecisionFinding::Kind kind) {
  switch (kind) {
    case PrecisionFinding::Kind::kOverflowPossible: return "overflow-possible";
    case PrecisionFinding::Kind::kNanPossible: return "nan-possible";
    case PrecisionFinding::Kind::kUnboundedError: return "unbounded-error";
    case PrecisionFinding::Kind::kSubnormalFlush: return "subnormal-flush";
  }
  return "?";
}

PrecisionReport analyze_kernel_precision(const TranslationUnit& tu,
                                         const KernelIR& ir,
                                         const PrecisionAssumptions& as) {
  return Walker(tu, ir, as).run();
}

std::vector<PrecisionReport> analyze_source_precision(
    const std::string& source, const PrecisionAssumptions& as) {
  const TranslationUnit tu = parse_translation_unit(source);
  std::vector<PrecisionReport> out;
  for (const KernelIR& ir : lower_kernels(tu)) {
    out.push_back(analyze_kernel_precision(tu, ir, as));
  }
  return out;
}

std::string to_json(const PrecisionReport& r) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << r.kernel << "\",\"storage\":\"" << r.storage
     << "\",\"certified\":" << (r.certified ? "true" : "false")
     << ",\"solve_contract\":" << (r.solve_contract_applied ? "true" : "false")
     << ",\"output\":{\"buffer\":\"" << r.output_buffer << "\",\"lo\":"
     << r.output.lo << ",\"hi\":" << r.output.hi << ",\"err\":" << r.output.err
     << ",\"nan_possible\":" << (r.output.nan_possible ? "true" : "false")
     << ",\"ceiling\":" << r.output_ceiling << "}"
     << ",\"subnormal_flush_points\":" << r.subnormal_flush_points
     << ",\"assumptions\":{\"omega_max\":" << r.assumptions.omega_max
     << ",\"rating_bound\":" << r.assumptions.rating_bound
     << ",\"factor_bound\":" << r.assumptions.factor_bound
     << ",\"lambda_min\":" << r.assumptions.lambda_min
     << ",\"lambda_max\":" << r.assumptions.lambda_max << "}"
     << ",\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const auto& f = r.findings[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << to_string(f.kind) << "\",\"line\":" << f.line
       << ",\"what\":\"" << f.what << "\",\"lo\":" << f.lo
       << ",\"hi\":" << f.hi << ",\"err\":" << f.err
       << ",\"gates\":" << (gates_certification(f.kind) ? "true" : "false")
       << ",\"message\":\"" << f.message << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace alsmf::ocl::analyze::precision
