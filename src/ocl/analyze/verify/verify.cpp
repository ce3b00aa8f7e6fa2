#include "ocl/analyze/verify/verify.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace alsmf::ocl::analyze::verify {

namespace {
constexpr long kBig = (1L << 60);
long sat_mul(long a, long b) {
  if (a == 0 || b == 0) return 0;
  if (a > kBig / std::abs(b) || a < -kBig / std::abs(b)) {
    return (a > 0) == (b > 0) ? kBig : -kBig;
  }
  return a * b;
}
long sat_add(long a, long b) {
  long s = a + b;
  if (s > kBig) return kBig;
  if (s < -kBig) return -kBig;
  return s;
}
}  // namespace

SymExpr SymExpr::plus(const SymExpr& o, long sign) const {
  SymExpr r = *this;
  r.c = sat_add(r.c, sat_mul(sign, o.c));
  for (const auto& [n, v] : o.terms) {
    long& slot = r.terms[n];
    slot = sat_add(slot, sat_mul(sign, v));
    if (slot == 0) r.terms.erase(n);
  }
  return r;
}

SymExpr SymExpr::plus_const(long v) const {
  SymExpr r = *this;
  r.c = sat_add(r.c, v);
  return r;
}

SymExpr SymExpr::scaled(long s) const {
  SymExpr r;
  r.c = sat_mul(c, s);
  if (s != 0) {
    for (const auto& [n, v] : terms) r.terms[n] = sat_mul(v, s);
  }
  return r;
}

std::string SymExpr::str() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [n, v] : terms) {
    if (v == 0) continue;
    if (!first) os << (v > 0 ? " + " : " - ");
    else if (v < 0) os << "-";
    first = false;
    const long a = std::abs(v);
    if (a != 1) os << a << "*";
    os << n;
  }
  if (first) {
    os << c;
  } else if (c != 0) {
    os << (c > 0 ? " + " : " - ") << std::abs(c);
  }
  return os.str();
}

const char* to_string(BoundsVerdict v) {
  switch (v) {
    case BoundsVerdict::kProvenSafe: return "proven-safe";
    case BoundsVerdict::kProvenViolating: return "proven-violating";
    case BoundsVerdict::kUnprovable: return "unprovable";
  }
  return "?";
}

const char* to_string(RaceVerdict v) {
  switch (v) {
    case RaceVerdict::kProvenFree: return "proven-free";
    case RaceVerdict::kProvenRace: return "proven-race";
    case RaceVerdict::kUnprovable: return "unprovable";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Symbol facts and the non-negativity prover.
// ---------------------------------------------------------------------------

struct Facts {
  std::map<std::string, long> lower;    // symbol >= value (default 0)
  std::map<std::string, SymExpr> upper;  // symbol <= expr
};

/// Proves `d >= 0` by repeatedly replacing negative-coefficient symbols with
/// their upper bounds and positive-coefficient symbols with their lower
/// bounds (both substitutions only shrink `d`). Fails closed.
bool prove_nonneg(SymExpr d, const Facts& f) {
  for (int round = 0; round < 24; ++round) {
    for (auto it = d.terms.begin(); it != d.terms.end();) {
      it = it->second == 0 ? d.terms.erase(it) : std::next(it);
    }
    if (d.terms.empty()) return d.c >= 0;
    bool changed = false;
    for (const auto& [name, coeff] : d.terms) {
      if (coeff < 0) {
        auto up = f.upper.find(name);
        if (up == f.upper.end()) continue;
        const long cc = coeff;
        SymExpr u = up->second;
        d.terms.erase(name);
        d = d.plus(u.scaled(cc), 1);
        changed = true;
        break;
      }
      long lo = 0;
      auto lb = f.lower.find(name);
      if (lb != f.lower.end()) lo = lb->second;
      const long cc = coeff;
      d.terms.erase(name);
      d.c = sat_add(d.c, sat_mul(cc, lo));
      changed = true;
      break;
    }
    if (!changed) return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Interval domain: symbolic [lo, hi] with infinities and a stride.
// ---------------------------------------------------------------------------

struct Bound {
  bool inf = false;  // -inf when used as a lower bound, +inf as an upper
  SymExpr e;
};

struct Range {
  bool ok = false;
  Bound lo, hi;
  long stride = 1;

  static Range exact(SymExpr lo, SymExpr hi, long stride = 1) {
    Range r;
    r.ok = true;
    r.lo.e = std::move(lo);
    r.hi.e = std::move(hi);
    r.stride = stride;
    return r;
  }
  static Range consts(long lo, long hi, long stride = 1) {
    return exact(SymExpr::constant(lo), SymExpr::constant(hi), stride);
  }
  static Range lower_only(long lo) {
    Range r;
    r.ok = true;
    r.lo.e = SymExpr::constant(lo);
    r.hi.inf = true;
    return r;
  }
};

/// acc += coeff * t  (interval arithmetic; sign of coeff flips the ends).
Range add_scaled(const Range& acc, const Range& t, long coeff) {
  Range r;
  if (!acc.ok || !t.ok) return r;
  r.ok = true;
  const Bound& tl = coeff >= 0 ? t.lo : t.hi;
  const Bound& th = coeff >= 0 ? t.hi : t.lo;
  r.lo.inf = acc.lo.inf || tl.inf;
  r.hi.inf = acc.hi.inf || th.inf;
  if (!r.lo.inf) r.lo.e = acc.lo.e.plus(tl.e.scaled(coeff), 1);
  if (!r.hi.inf) r.hi.e = acc.hi.e.plus(th.e.scaled(coeff), 1);
  r.stride = std::gcd(acc.stride, std::abs(sat_mul(coeff, t.stride)));
  if (r.stride == 0) r.stride = std::max(acc.stride, 1L);
  return r;
}

// ---------------------------------------------------------------------------
// Exact finite-domain solver for Σ coeff_i · v_i + c0 = 0.
//
// Domains are arithmetic progressions v = lo + stride·t (or all multiples of
// stride when lo is -inf), optionally excluding 0, optionally tied by a
// "must differ" constraint to another variable. Returns kNo only when the
// whole space was exhausted; enumeration that would not terminate (infinite
// window over an infinite domain) degrades to kUnknown, never to kNo.
// ---------------------------------------------------------------------------

struct DVar {
  long coeff = 1;
  long lo = 0, hi = 0;  // ignored when *_inf
  bool lo_inf = false, hi_inf = false;
  long stride = 1;
  bool excl0 = false;
  int neq = -1;  // index of a variable whose value must differ
  std::string name;
};

enum class Sat { kNo, kYes, kUnknown };

class Solver {
 public:
  Solver(std::vector<DVar> vars, long c0, long node_budget)
      : vars_(std::move(vars)), c0_(c0), budget_(node_budget) {
    order_.resize(vars_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      return std::abs(sat_mul(vars_[a].coeff, vars_[a].stride)) >
             std::abs(sat_mul(vars_[b].coeff, vars_[b].stride));
    });
    // Suffix contribution intervals for window pruning.
    const int n = static_cast<int>(vars_.size());
    suf_lo_.assign(n + 1, 0);
    suf_hi_.assign(n + 1, 0);
    suf_lo_inf_.assign(n + 1, false);
    suf_hi_inf_.assign(n + 1, false);
    for (int i = n - 1; i >= 0; --i) {
      const DVar& v = vars_[order_[i]];
      long clo, chi;
      bool clo_inf, chi_inf;
      contrib(v, clo, clo_inf, chi, chi_inf);
      suf_lo_inf_[i] = suf_lo_inf_[i + 1] || clo_inf;
      suf_hi_inf_[i] = suf_hi_inf_[i + 1] || chi_inf;
      suf_lo_[i] = sat_add(suf_lo_[i + 1], clo);
      suf_hi_[i] = sat_add(suf_hi_[i + 1], chi);
    }
    value_.assign(n, 0);
    assigned_.assign(n, false);
  }

  Sat solve(std::vector<long>* witness = nullptr) {
    incomplete_ = false;
    if (search(0, c0_)) {
      if (witness) *witness = value_;
      return Sat::kYes;
    }
    return incomplete_ ? Sat::kUnknown : Sat::kNo;
  }

  const std::vector<DVar>& vars() const { return vars_; }

 private:
  static void contrib(const DVar& v, long& lo, bool& lo_inf, long& hi,
                      bool& hi_inf) {
    const long a = sat_mul(v.coeff, v.lo), b = sat_mul(v.coeff, v.hi);
    const bool ainf = v.coeff >= 0 ? v.lo_inf : v.hi_inf;
    const bool binf = v.coeff >= 0 ? v.hi_inf : v.lo_inf;
    lo = std::min(a, b);
    hi = std::max(a, b);
    lo_inf = ainf;
    hi_inf = binf;
    if (v.coeff < 0) std::swap(lo_inf, hi_inf);
  }

  static long floor_div(long a, long b) {
    long q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
  }
  static long ceil_div(long a, long b) { return -floor_div(-a, b); }

  bool search(int pos, long rem) {
    if (--budget_ < 0) {
      incomplete_ = true;
      return false;
    }
    if (pos == static_cast<int>(order_.size())) return rem == 0;
    const int vi = order_[pos];
    const DVar& v = vars_[vi];
    // Window for coeff·value: rem + coeff·value + rest = 0.
    const bool wlo_inf = suf_hi_inf_[pos + 1];
    const bool whi_inf = suf_lo_inf_[pos + 1];
    const long wlo = sat_add(-rem, -suf_hi_[pos + 1]);
    const long whi = sat_add(-rem, -suf_lo_[pos + 1]);
    const long cs = sat_mul(v.coeff, v.stride);
    // Candidate t-range where value = anchor + stride·t.
    const long anchor = v.lo_inf ? 0 : v.lo;
    long tlo = 0, thi = -1;
    bool tlo_inf = v.lo_inf, thi_inf = v.hi_inf;
    if (!v.lo_inf) tlo = 0;
    if (!v.hi_inf) {
      if (v.lo_inf) {
        tlo_inf = true;
        thi = floor_div(v.hi - anchor, v.stride);
      } else {
        thi = floor_div(v.hi - anchor, v.stride);
      }
    }
    // Intersect with the window (in t units).
    if (!wlo_inf || !whi_inf) {
      const long ca = sat_mul(v.coeff, anchor);
      // coeff·(anchor + stride·t) in [wlo, whi]
      if (cs > 0) {
        if (!wlo_inf) {
          const long t = ceil_div(sat_add(wlo, -ca), cs);
          if (tlo_inf || t > tlo) tlo = t;
          tlo_inf = false;
        }
        if (!whi_inf) {
          const long t = floor_div(sat_add(whi, -ca), cs);
          if (thi_inf || t < thi) thi = t;
          thi_inf = false;
        }
      } else if (cs < 0) {
        if (!whi_inf) {
          const long t = ceil_div(sat_add(whi, -ca), cs);
          if (tlo_inf || t > tlo) tlo = t;
          tlo_inf = false;
        }
        if (!wlo_inf) {
          const long t = floor_div(sat_add(wlo, -ca), cs);
          if (thi_inf || t < thi) thi = t;
          thi_inf = false;
        }
      } else {
        // coeff·value fixed at ca: feasible only if ca is inside the window.
        if ((!wlo_inf && ca < wlo) || (!whi_inf && ca > whi)) return false;
      }
    }
    if (tlo_inf || thi_inf) {
      incomplete_ = true;
      return false;
    }
    if (thi < tlo) return false;
    if (thi - tlo > 4096) {
      incomplete_ = true;
      return false;
    }
    for (long t = tlo; t <= thi; ++t) {
      const long val = anchor + v.stride * t;
      if (v.excl0 && val == 0) continue;
      if (v.neq >= 0 && assigned_[v.neq] && value_[v.neq] == val) continue;
      value_[vi] = val;
      assigned_[vi] = true;
      if (search(pos + 1, sat_add(rem, sat_mul(v.coeff, val)))) return true;
      assigned_[vi] = false;
    }
    return false;
  }

  std::vector<DVar> vars_;
  long c0_ = 0;
  long budget_ = 0;
  bool incomplete_ = false;
  std::vector<int> order_;
  std::vector<long> suf_lo_, suf_hi_;
  std::vector<bool> suf_lo_inf_, suf_hi_inf_;
  std::vector<long> value_;
  std::vector<bool> assigned_;
};

/// Witness probe: clamp infinite domain ends to a finite box and re-search.
/// A solution found in the box is a real solution (box ⊆ domain).
Sat probe_solve(const std::vector<DVar>& vars, long c0,
                std::vector<long>* witness) {
  std::vector<DVar> clamped = vars;
  for (auto& v : clamped) {
    const long span = sat_mul(96, std::max(v.stride, 1L));
    if (v.lo_inf) {
      v.lo_inf = false;
      v.lo = v.hi_inf ? -span : sat_add(v.hi, -span);
    }
    if (v.hi_inf) {
      v.hi_inf = false;
      v.hi = sat_add(v.lo, span);
    }
  }
  Solver s(std::move(clamped), c0, 400000);
  const Sat r = s.solve(witness);
  return r == Sat::kYes ? Sat::kYes : Sat::kUnknown;
}

// ---------------------------------------------------------------------------
// The per-kernel verifier.
// ---------------------------------------------------------------------------

enum class CtxKind { kIntra, kWrap, kCross };
struct RaceCtx {
  CtxKind kind = CtxKind::kIntra;
  long wrap_loop = -1;
};

class Verifier {
 public:
  Verifier(const KernelIR& ir, const KernelContract& ct) : ir_(ir), ct_(ct) {
    rep_.kernel = ir.name;
    setup_facts();
  }

  KernelVerifyReport run() {
    bounds_pass();
    race_pass();
    width_pass();
    return std::move(rep_);
  }

 private:
  const KernelIR& ir_;
  const KernelContract& ct_;
  KernelVerifyReport rep_;
  Facts facts_;
  std::map<std::string, SymExpr> nnz_total_;  // RowNnz var -> offsets total

  const BufferContract* contract_of(const std::string& buffer) const {
    auto it = ct_.buffers.find(buffer);
    return it == ct_.buffers.end() ? nullptr : &it->second;
  }

  void setup_facts() {
    facts_.lower = ct_.lower;
    facts_.upper = ct_.upper;
    for (const auto& rn : ir_.row_nnz) {
      const BufferContract* bc = contract_of(rn.buffer);
      if (bc && bc->offsets) {
        // omega = ptr[i+1] - ptr[i] with 0 <= ptr[.] <= total.
        facts_.lower["nnz:" + rn.var] = 0;
        facts_.upper["nnz:" + rn.var] = bc->offsets_total;
        nnz_total_["nnz:" + rn.var] = bc->offsets_total;
      }
    }
  }

  // --- term normalization: fold `lane + lpvar#i` into one `lanepos#i` ---

  std::map<std::string, long> norm_terms(const RefIR& ref) const {
    std::map<std::string, long> t = ref.affine.terms;
    const auto lane_it = t.find("lane");
    if (lane_it == t.end()) return t;
    for (long lid : ref.loop_path) {
      const LoopIR* lp = ir_.loop_by_id(lid);
      if (!lp || lp->kind != LoopIR::Kind::kLanePart) continue;
      const std::string lv = "lpvar#" + std::to_string(lid);
      auto it = t.find(lv);
      if (it != t.end() && it->second == lane_it->second) {
        const long c = it->second;
        t.erase(lv);
        t.erase("lane");
        t["lanepos#" + std::to_string(lid)] += c;
        break;
      }
    }
    return t;
  }

  // --- composite bounds rules ---

  /// True when `rest` (coefficients all 1) provably stays within
  /// [0, omega-1] for the RowNnz variable `var` — the chunk/nnz loop
  /// decomposition of a CSR segment walk.
  bool chunk_rest_covers(const std::map<std::string, long>& rest,
                         const std::string& var) const {
    if (rest.empty()) return false;
    int n_nnz = 0, n_chunk = 0, n_body = 0;
    long chunk_id = -1, body_link = -1;
    for (const auto& [tag, coeff] : rest) {
      if (coeff != 1) return false;
      if (tag.rfind("loopvar#", 0) == 0) {
        const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(8)));
        if (!l) return false;
        switch (l->kind) {
          case LoopIR::Kind::kNnz:
            if (l->nnz_var != var) return false;
            ++n_nnz;
            break;
          case LoopIR::Kind::kChunked:
            if (l->nnz_var != var) return false;
            ++n_chunk;
            chunk_id = l->id;
            break;
          case LoopIR::Kind::kChunkBody: {
            const LoopIR* c = ir_.loop_by_id(l->chunk_link);
            if (!c || c->nnz_var != var) return false;
            ++n_body;
            body_link = l->chunk_link;
            break;
          }
          default:
            return false;
        }
      } else if (tag.rfind("lanepos#", 0) == 0) {
        const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(8)));
        if (!l || l->kind != LoopIR::Kind::kLanePart) return false;
        if (l->chunk_link >= 0) {
          const LoopIR* c = ir_.loop_by_id(l->chunk_link);
          if (!c || c->nnz_var != var) return false;
          ++n_body;
          body_link = l->chunk_link;
        } else if (l->lane_region && l->nnz_var == var) {
          ++n_nnz;
        } else {
          return false;
        }
      } else {
        return false;
      }
    }
    if (n_nnz > 1 || n_chunk > 1 || n_body > 1) return false;
    if (n_nnz >= 1 && (n_chunk || n_body)) return false;
    if (n_body == 1 && n_chunk == 1 && body_link != chunk_id) return false;
    return true;
  }

  // --- per-term ranges ---

  Range lane_range(const RefIR& ref) const {
    long hi = ir_.ws > 0 ? ir_.ws - 1 : kBig;
    if (ref.lane_bound > 0) hi = std::min(hi, ref.lane_bound - 1);
    if (hi >= kBig) return Range::lower_only(0);
    return Range::consts(0, hi);
  }

  Range lanepart_span(const LoopIR& l) const {
    if (l.lane_span > 0) return Range::consts(0, l.lane_span - 1);
    if (l.chunk_link >= 0) {
      const LoopIR* c = ir_.loop_by_id(l.chunk_link);
      if (c && c->step > 0) return Range::consts(0, c->step - 1);
    }
    if (l.lane_region && !l.nnz_var.empty() &&
        nnz_total_.count("nnz:" + l.nnz_var)) {
      return Range::exact(SymExpr::constant(0),
                          SymExpr::sym("nnz:" + l.nnz_var, 1, -1));
    }
    return Range::lower_only(0);
  }

  Range value_range(const IndirectIR& ind) const {
    const BufferContract* bc = contract_of(ind.buffer);
    if (!bc || !bc->has_values) {
      Range r;
      r.ok = true;
      r.lo.inf = true;
      r.hi.inf = true;
      return r;
    }
    Range r = Range::exact(bc->value_min.scaled(ind.scale),
                           bc->value_max.scaled(ind.scale),
                           std::max(std::abs(ind.scale), 1L));
    if (ind.scale < 0) std::swap(r.lo, r.hi);
    return r;
  }

  Range term_range(const std::string& tag, const RefIR& ref, int depth) const {
    if (depth > 6) return Range();
    if (tag == "lane") return lane_range(ref);
    if (tag == "row") {
      if (ir_.row_bounded) {
        auto it = ct_.scalar_args.find(ir_.row_bound_var);
        if (it != ct_.scalar_args.end()) {
          return Range::exact(SymExpr::constant(0), it->second.plus_const(-1));
        }
      }
      return Range::lower_only(0);
    }
    if (tag == "group") return Range::lower_only(0);
    if (tag == "ngroups") return Range::lower_only(1);
    if (tag.rfind("lanepos#", 0) == 0) {
      const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(8)));
      if (!l) return Range();
      return lanepart_span(*l);
    }
    if (tag.rfind("lpvar#", 0) == 0) {
      const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(6)));
      if (!l) return Range();
      Range r = lanepart_span(*l);
      r.stride = std::max(ir_.ws, 1L);
      return r;
    }
    if (tag.rfind("loopvar#", 0) == 0) {
      const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(8)));
      if (!l) return Range();
      switch (l->kind) {
        case LoopIR::Kind::kFixed: {
          const Range init = affine_range(l->init_affine, ref, depth + 1);
          const Range bound = affine_range(l->bound_affine, ref, depth + 1);
          if (!init.ok || !bound.ok) return Range();
          Range r;
          r.ok = true;
          r.stride = std::max(std::abs(l->step), 1L);
          if (l->step_down) {
            // for (i = init; i >= bound; i -= step)
            r.lo = bound.lo;
            if (!l->bound_inclusive && !r.lo.inf) {
              r.lo.e = r.lo.e.plus_const(1);
            }
            r.hi = init.hi;
          } else {
            r.lo = init.lo;
            r.hi = bound.hi;
            if (!r.hi.inf) {
              r.hi.e = r.hi.e.plus_const(l->bound_inclusive ? 0 : -1);
            }
          }
          return r;
        }
        case LoopIR::Kind::kNnz:
        case LoopIR::Kind::kChunked: {
          if (!l->nnz_var.empty() && nnz_total_.count("nnz:" + l->nnz_var)) {
            Range r = Range::exact(SymExpr::constant(0),
                                   SymExpr::sym("nnz:" + l->nnz_var, 1, -1));
            r.stride = std::max(l->step, 1L);
            return r;
          }
          return Range::lower_only(0);
        }
        case LoopIR::Kind::kChunkBody: {
          const LoopIR* c = ir_.loop_by_id(l->chunk_link);
          if (c && c->step > 0) return Range::consts(0, c->step - 1);
          return Range::lower_only(0);
        }
        case LoopIR::Kind::kLanePart:
          return lanepart_span(*l);
        case LoopIR::Kind::kRowStride:
          return term_range("row", ref, depth + 1);
      }
      return Range();
    }
    if (tag.rfind("seg#", 0) == 0 || tag.rfind("gather#", 0) == 0) {
      const IndirectIR* ind = ir_.indirect_by_tag(tag);
      if (!ind) return Range();
      return value_range(*ind);
    }
    return Range();
  }

  Range affine_range(const AffineIdx& a, const RefIR& ref, int depth) const {
    if (!a.ok || depth > 8) return Range();
    Range acc = Range::consts(a.c, a.c, 0);
    for (const auto& [tag, coeff] : a.terms) {
      if (coeff == 0) continue;
      acc = add_scaled(acc, term_range(tag, ref, depth), coeff);
      if (!acc.ok) return acc;
    }
    if (acc.stride == 0) acc.stride = 1;
    return acc;
  }

  Range range_of_ref(const RefIR& ref) const {
    if (!ref.affine.ok) return Range();
    const std::map<std::string, long> terms = norm_terms(ref);
    // CSR rule: seg(row_ptr[u]) + (walk ⊆ [0, omega-1]) + C.
    for (const auto& rn : ir_.row_nnz) {
      auto it = terms.find(rn.begin_seg);
      if (it == terms.end() || it->second != 1) continue;
      const BufferContract* bc = contract_of(rn.buffer);
      if (!bc || !bc->offsets) continue;
      std::map<std::string, long> rest = terms;
      rest.erase(rn.begin_seg);
      if (chunk_rest_covers(rest, rn.var)) {
        return Range::exact(SymExpr::constant(ref.affine.c),
                            bc->offsets_total.plus_const(ref.affine.c - 1));
      }
    }
    AffineIdx norm;
    norm.c = ref.affine.c;
    norm.terms = terms;
    return affine_range(norm, ref, 0);
  }

  // --- witness evaluation over the contract's concrete grid ---

  bool eval_sym(const std::string& name,
                const std::map<std::string, long>& pt, bool want_max,
                long* out) const {
    auto it = pt.find(name);
    if (it != pt.end()) {
      *out = it->second;
      return true;
    }
    auto nz = nnz_total_.find(name);
    if (nz != nnz_total_.end()) {
      // omega ∈ [0, total]: max is the whole stream in one row.
      if (!want_max) {
        *out = 0;
        return true;
      }
      return eval_expr(nz->second, pt, true, out);
    }
    return false;
  }

  bool eval_expr(const SymExpr& e, const std::map<std::string, long>& pt,
                 bool want_max, long* out) const {
    long acc = e.c;
    for (const auto& [name, coeff] : e.terms) {
      if (coeff == 0) continue;
      long v = 0;
      if (!eval_sym(name, pt, (coeff > 0) == want_max, &v)) return false;
      acc = sat_add(acc, sat_mul(coeff, v));
    }
    *out = acc;
    return true;
  }

  // --- bounds pass ---

  bool extent_of(const RefIR& ref, SymExpr* out, std::string* why) const {
    switch (ref.space) {
      case MemSpace::kGlobal: {
        const BufferContract* bc = contract_of(ref.buffer);
        if (!bc || !bc->has_extent) {
          *why = "no extent contract for global buffer '" + ref.buffer + "'";
          return false;
        }
        *out = bc->extent;
        return true;
      }
      case MemSpace::kLocal:
        for (const auto& l : ir_.locals) {
          if (l.name != ref.buffer) continue;
          if (l.elems < 0) {
            *why = "__local '" + ref.buffer + "' has a non-constant extent";
            return false;
          }
          *out = SymExpr::constant(l.elems);
          return true;
        }
        *why = "no declaration found for __local '" + ref.buffer + "'";
        return false;
      case MemSpace::kPrivate:
        for (const auto& p : ir_.private_arrays) {
          if (p.name != ref.buffer) continue;
          *out = SymExpr::constant(p.elems);
          return true;
        }
        *why = "no declaration found for private array '" + ref.buffer + "'";
        return false;
    }
    return false;
  }

  void bounds_pass() {
    for (const auto& ref : ir_.refs) {
      ++rep_.refs_total;
      BoundsFinding f;
      f.buffer = ref.buffer;
      f.space = ref.space;
      f.is_store = ref.is_store;
      f.line = ref.line;
      f.col = ref.col;
      f.index = ref.index;

      SymExpr extent;
      std::string why;
      if (!extent_of(ref, &extent, &why)) {
        f.verdict = BoundsVerdict::kUnprovable;
        f.detail = why;
        ++rep_.refs_unprovable;
        rep_.bounds_findings.push_back(std::move(f));
        continue;
      }
      const Range r = range_of_ref(ref);
      if (!r.ok) {
        f.verdict = BoundsVerdict::kUnprovable;
        f.detail = "index is not resolvable in the interval domain";
        ++rep_.refs_unprovable;
        rep_.bounds_findings.push_back(std::move(f));
        continue;
      }
      Bound hi = r.hi;
      if (!hi.inf && ref.vec_elems > 1) {
        hi.e = hi.e.plus_const(ref.vec_elems - 1);
      }
      const bool lo_ok = !r.lo.inf && prove_nonneg(r.lo.e, facts_);
      const bool hi_ok =
          !hi.inf && prove_nonneg(extent.plus_const(-1).plus(hi.e, -1), facts_);
      if (lo_ok && hi_ok) {
        ++rep_.refs_proven_safe;
        continue;
      }
      // Violation witness over the concrete grid.
      bool violating = false;
      for (const auto& pt : ct_.witness_grid) {
        long ext = 0;
        if (!eval_expr(extent, pt, true, &ext)) continue;
        if (!lo_ok && !r.lo.inf) {
          long lo_v = 0;
          if (eval_expr(r.lo.e, pt, false, &lo_v) && lo_v < 0) {
            f.detail = "index reaches " + std::to_string(lo_v) +
                       " < 0 (lo = " + r.lo.e.str() + ")";
            violating = true;
            break;
          }
        }
        if (!hi_ok && !hi.inf) {
          long hi_v = 0;
          if (eval_expr(hi.e, pt, true, &hi_v) && hi_v > ext - 1) {
            f.detail = "index reaches " + std::to_string(hi_v) +
                       " > extent-1 = " + std::to_string(ext - 1) +
                       " (hi = " + hi.e.str() + ", extent = " + extent.str() +
                       ")";
            violating = true;
            break;
          }
        }
      }
      if (violating) {
        f.verdict = BoundsVerdict::kProvenViolating;
        ++rep_.refs_proven_violating;
      } else {
        f.verdict = BoundsVerdict::kUnprovable;
        std::ostringstream os;
        os << "cannot prove ";
        if (!lo_ok) {
          os << (r.lo.inf ? std::string("lower bound (unbounded below)")
                          : "0 <= " + r.lo.e.str());
        }
        if (!lo_ok && !hi_ok) os << " and ";
        if (!hi_ok) {
          os << (hi.inf ? std::string("upper bound (unbounded above)")
                        : hi.e.str() + " <= " + extent.str() + " - 1");
        }
        f.detail = os.str();
        ++rep_.refs_unprovable;
      }
      rep_.bounds_findings.push_back(std::move(f));
    }
  }

  // --- race pass ---

  struct BuildOut {
    bool ok = false;
    std::vector<DVar> vars;
    long c0 = 0;
  };

  void push_range_var(BuildOut* out, const Range& r, long coeff,
                      const std::string& name, bool excl0 = false,
                      int neq = -1) {
    DVar v;
    v.coeff = coeff;
    v.stride = std::max(r.stride, 1L);
    v.lo_inf = r.lo.inf || !r.lo.e.is_const();
    v.hi_inf = r.hi.inf || !r.hi.e.is_const();
    if (!v.lo_inf) v.lo = r.lo.e.c;
    if (!v.hi_inf) v.hi = r.hi.e.c;
    v.excl0 = excl0;
    v.neq = neq;
    v.name = name;
    out->vars.push_back(v);
  }

  /// Delta variable for a term whose per-item value spans `r`:
  /// δ ∈ ±width(r), same stride.
  void push_delta(BuildOut* out, const Range& r, long coeff,
                  const std::string& name, bool excl0) {
    DVar v;
    v.coeff = coeff;
    v.stride = std::max(r.stride, 1L);
    const bool finite = r.ok && !r.lo.inf && !r.hi.inf && r.lo.e.is_const() &&
                        r.hi.e.is_const();
    if (finite) {
      const long w = r.hi.e.c - r.lo.e.c;
      v.lo = -w;
      v.hi = w;
    } else {
      v.lo_inf = v.hi_inf = true;
    }
    v.excl0 = excl0;
    v.name = name;
    out->vars.push_back(v);
  }

  void push_onesided_pair(BuildOut* out, const Range& ra, long ca,
                          const Range& rb, long cb, const std::string& name,
                          bool tie_neq) {
    if (ca != 0) {
      push_range_var(out, ra, ca, name + "@A");
    }
    if (cb != 0) {
      push_range_var(out, rb, -cb, name + "@B");
    }
    if (tie_neq && ca != 0 && cb != 0) {
      const int ia = static_cast<int>(out->vars.size()) - 2;
      const int ib = ia + 1;
      out->vars[ia].neq = ib;
      out->vars[ib].neq = ia;
    }
  }

  /// Is this term pinned equal across the two work-items in this context?
  bool synced(const std::string& tag, const RaceCtx& ctx) const {
    if (ctx.kind == CtxKind::kCross) {
      return tag == "ngroups";
    }
    if (tag == "ngroups" || tag == "group") return true;
    if (tag == "row") {
      // Batched mapping: the row loop carries barriers, so all lanes sit in
      // the same iteration — except across the wrap-around of the row loop
      // itself.
      if (!ir_.batched_mapping) return false;
      if (ctx.kind == CtxKind::kWrap) {
        const LoopIR* l = ir_.loop_by_id(ctx.wrap_loop);
        if (l && l->kind == LoopIR::Kind::kRowStride) return false;
      }
      return true;
    }
    if (tag.rfind("loopvar#", 0) == 0) {
      const LoopIR* l = ir_.loop_by_id(std::stol(tag.substr(8)));
      if (!l) return false;
      if (ctx.kind == CtxKind::kWrap && l->id == ctx.wrap_loop) return false;
      return l->body_has_barrier;
    }
    return false;
  }

  /// Identity terms force distinct values for distinct work-items.
  bool identity(const std::string& tag, const RaceCtx& ctx) const {
    if (ctx.kind == CtxKind::kCross) {
      // Across groups: the group id differs; row ids never collide across
      // groups under either mapping (flat: disjoint global ids; batched:
      // u ≡ group (mod num_groups)).
      return tag == "group" || tag == "row";
    }
    // Within a group: distinct lanes. lanepos = lane + WS·m is injective in
    // the lane for fixed loop tag, so it inherits the identity property.
    return tag == "lane" || tag.rfind("lanepos#", 0) == 0 ||
           (tag == "row" && !ir_.batched_mapping);
  }

  BuildOut build_load_delta(const AffineIdx& a, const RefIR& ra,
                            const AffineIdx& b, const RefIR& rb,
                            const RaceCtx& ctx, int depth) {
    BuildOut out;
    if (!a.ok || !b.ok || depth > 3) return out;
    out.c0 = a.c - b.c;
    std::map<std::string, std::pair<long, long>> tags;
    for (const auto& [t, c] : a.terms) tags[t].first = c;
    for (const auto& [t, c] : b.terms) tags[t].second = c;
    for (const auto& [tag, cc] : tags) {
      if (!emit_term(&out, tag, cc.first, cc.second, ra, rb, ctx, depth)) {
        return out;  // !ok
      }
    }
    out.ok = true;
    return out;
  }

  bool emit_term(BuildOut* out, const std::string& tag, long ca, long cb,
                 const RefIR& ra, const RefIR& rb, const RaceCtx& ctx,
                 int depth) {
    if (ca == 0 && cb == 0) return true;
    if (tag.rfind("seg#", 0) == 0 || tag.rfind("gather#", 0) == 0) {
      return emit_indirect_term(out, tag, ca, cb, ra, rb, ctx, depth);
    }
    if (synced(tag, ctx)) {
      if (ca == cb) return true;  // identical value, coefficients cancel
      // Same value v on both sides with net coefficient (ca - cb).
      push_range_var(out, term_range(tag, ra, 0), ca - cb, tag + "@sync");
      return true;
    }
    const bool ident = identity(tag, ctx);
    const Range range_a = term_range(tag, ra, 0);
    const Range range_b = term_range(tag, rb, 0);
    // Wrap-around of the wrap loop's own variable: adjacent iterations.
    if (ctx.kind == CtxKind::kWrap && tag.rfind("loopvar#", 0) == 0 &&
        std::stol(tag.substr(8)) == ctx.wrap_loop && ca == cb) {
      const LoopIR* l = ir_.loop_by_id(ctx.wrap_loop);
      const long step = l ? std::max(std::abs(l->step), 1L) : 1;
      DVar v;
      v.coeff = ca;
      v.stride = step;
      v.lo = -step;
      v.hi = step;
      v.excl0 = true;
      v.name = tag + "@wrap";
      out->vars.push_back(v);
      return true;
    }
    if (tag == "row" && ctx.kind == CtxKind::kWrap && ca == cb &&
        ir_.batched_mapping && !synced(tag, ctx)) {
      // Row-loop wrap: u differs by ±num_groups ≥ 1.
      DVar v;
      v.coeff = ca;
      v.lo_inf = v.hi_inf = true;
      v.excl0 = true;
      v.name = "row@wrap";
      out->vars.push_back(v);
      return true;
    }
    if (ca == cb) {
      if (ident && ctx.kind == CtxKind::kCross && tag != "group" &&
          tag != "row") {
        // Identity within a group only — across groups the value is free.
        push_delta(out, range_a, ca, tag, /*excl0=*/false);
        return true;
      }
      if (ident) {
        // Unbounded identities (cross-group row/group) still differ.
        if (ctx.kind == CtxKind::kCross && (tag == "group" || tag == "row")) {
          DVar v;
          v.coeff = ca;
          v.lo_inf = v.hi_inf = true;
          v.excl0 = true;
          v.name = tag;
          out->vars.push_back(v);
          return true;
        }
        // Intra-group identity: bounded delta without zero. Use both refs'
        // bounds for an asymmetric window.
        DVar v;
        v.coeff = ca;
        v.stride = std::max(std::gcd(range_a.stride, range_b.stride), 1L);
        const bool fin_a = range_a.ok && !range_a.hi.inf &&
                           range_a.hi.e.is_const() && !range_a.lo.inf &&
                           range_a.lo.e.is_const();
        const bool fin_b = range_b.ok && !range_b.hi.inf &&
                           range_b.hi.e.is_const() && !range_b.lo.inf &&
                           range_b.lo.e.is_const();
        if (fin_a && fin_b) {
          v.lo = range_a.lo.e.c - range_b.hi.e.c;
          v.hi = range_a.hi.e.c - range_b.lo.e.c;
        } else {
          v.lo_inf = v.hi_inf = true;
        }
        v.excl0 = true;
        v.name = tag;
        out->vars.push_back(v);
        return true;
      }
      push_delta(out, range_a, ca, tag, /*excl0=*/false);
      return true;
    }
    // Different coefficients (or present on one side only): independent
    // one-sided variables; identity still forbids equal values intra-group.
    push_onesided_pair(out, range_a, ca, range_b, cb, tag,
                       ident && ctx.kind != CtxKind::kCross);
    return true;
  }

  bool emit_indirect_term(BuildOut* out, const std::string& tag, long ca,
                          long cb, const RefIR& ra, const RefIR& rb,
                          const RaceCtx& ctx, int depth) {
    const IndirectIR* ind = ir_.indirect_by_tag(tag);
    if (!ind) return false;
    const Range vr = value_range(*ind);
    const long stride = std::max(std::abs(ind->scale), 1L);
    if (ca == cb) {
      // Same load expression on both work-items: resolve the delta of the
      // load *index* first.
      const BuildOut ld = build_load_delta(ind->load_index, ra,
                                           ind->load_index, rb, ctx, depth + 1);
      if (!ld.ok) return false;
      if (ld.vars.empty() && ld.c0 == 0) return true;  // same element loaded
      DVar v;
      v.coeff = ca;
      v.stride = stride;
      const bool fin = vr.ok && !vr.lo.inf && !vr.hi.inf &&
                       vr.lo.e.is_const() && vr.hi.e.is_const();
      if (fin) {
        const long w = vr.hi.e.c - vr.lo.e.c;
        v.lo = -w;
        v.hi = w;
      } else {
        v.lo_inf = v.hi_inf = true;
      }
      v.name = tag + "@delta";
      out->vars.push_back(v);
      return true;
    }
    push_onesided_pair(out, vr, ca, vr, cb, tag, /*tie_neq=*/false);
    return true;
  }

  RaceVerdict pair_verdict(const RefIR& a, const RefIR& b, const RaceCtx& ctx,
                           std::string* detail) {
    BuildOut out;
    out.c0 = a.affine.c - b.affine.c;
    const std::map<std::string, long> ta = norm_terms(a);
    const std::map<std::string, long> tb = norm_terms(b);
    if (!a.affine.ok || !b.affine.ok) {
      *detail = "non-affine index";
      return RaceVerdict::kUnprovable;
    }
    std::map<std::string, std::pair<long, long>> tags;
    for (const auto& [t, c] : ta) tags[t].first = c;
    for (const auto& [t, c] : tb) tags[t].second = c;
    for (const auto& [tag, cc] : tags) {
      if (!emit_term(&out, tag, cc.first, cc.second, a, b, ctx, 0)) {
        *detail = "term '" + tag + "' is not resolvable";
        return RaceVerdict::kUnprovable;
      }
    }
    // Vector references cover [idx, idx + vec-1]: overlap is Δ within the
    // combined footprint, encoded as a slack variable.
    if (a.vec_elems > 1 || b.vec_elems > 1) {
      DVar slack;
      slack.coeff = 1;
      slack.lo = -(a.vec_elems - 1);
      slack.hi = b.vec_elems - 1;
      slack.name = "vec-overlap";
      out.vars.push_back(slack);
    }
    std::vector<long> witness;
    Solver s(out.vars, out.c0, 200000);
    Sat r = s.solve(&witness);
    if (r == Sat::kUnknown) {
      r = probe_solve(s.vars(), out.c0, &witness);
    }
    if (r == Sat::kNo) return RaceVerdict::kProvenFree;
    if (r == Sat::kYes) {
      std::ostringstream os;
      os << "indices collide at";
      const auto& vs = s.vars();
      for (std::size_t i = 0; i < vs.size() && i < witness.size(); ++i) {
        os << " " << vs[i].name << "=" << witness[i];
      }
      *detail = os.str();
      return RaceVerdict::kProvenRace;
    }
    *detail = "delta equation undecided (domains unbounded)";
    return RaceVerdict::kUnprovable;
  }

  void race_pass() {
    // Group references by buffer, skipping private memory (per work-item).
    std::map<std::pair<int, std::string>, std::vector<const RefIR*>> groups;
    for (const auto& r : ir_.refs) {
      if (r.space == MemSpace::kPrivate) continue;
      groups[{static_cast<int>(r.space), r.buffer}].push_back(&r);
    }
    for (const auto& [key, refs] : groups) {
      bool any_store = false;
      for (const RefIR* r : refs) any_store |= r->is_store;
      if (!any_store) continue;
      const MemSpace space = static_cast<MemSpace>(key.first);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        for (std::size_t j = i; j < refs.size(); ++j) {
          const RefIR& a = *refs[i];
          const RefIR& b = *refs[j];
          if (!a.is_store && !b.is_store) continue;
          std::vector<RaceCtx> ctxs;
          if (a.interval == b.interval) {
            ctxs.push_back({CtxKind::kIntra, -1});
          }
          for (const auto& l : ir_.loops) {
            if (!l.body_has_barrier || l.entry_interval == l.exit_interval) {
              continue;
            }
            const bool in_a = std::count(a.loop_path.begin(),
                                         a.loop_path.end(), l.id) > 0;
            const bool in_b = std::count(b.loop_path.begin(),
                                         b.loop_path.end(), l.id) > 0;
            if (!in_a || !in_b) continue;
            const bool fwd = a.interval == l.exit_interval &&
                             b.interval == l.entry_interval;
            const bool bwd = b.interval == l.exit_interval &&
                             a.interval == l.entry_interval;
            if (fwd || bwd) ctxs.push_back({CtxKind::kWrap, l.id});
          }
          if (space == MemSpace::kGlobal) {
            ctxs.push_back({CtxKind::kCross, -1});
          }
          if (ctxs.empty()) continue;
          ++rep_.pairs_checked;
          RaceVerdict worst = RaceVerdict::kProvenFree;
          bool cross = false;
          std::string detail;
          for (const auto& ctx : ctxs) {
            std::string d;
            const RaceVerdict v = pair_verdict(a, b, ctx, &d);
            if (v == RaceVerdict::kProvenFree) continue;
            const char* where =
                ctx.kind == CtxKind::kCross
                    ? "across groups"
                    : (ctx.kind == CtxKind::kWrap ? "across a barrier-loop wrap"
                                                  : "within a barrier interval");
            d = std::string(where) + ": " + d;
            if (v == RaceVerdict::kProvenRace) {
              worst = v;
              cross = ctx.kind == CtxKind::kCross;
              detail = d;
              break;
            }
            if (worst == RaceVerdict::kProvenFree) {
              worst = v;
              cross = ctx.kind == CtxKind::kCross;
              detail = d;
            }
          }
          if (worst == RaceVerdict::kProvenFree) continue;
          RaceFinding f;
          f.buffer = a.buffer;
          f.space = space;
          f.verdict = worst;
          f.cross_group = cross;
          f.line_a = a.line;
          f.col_a = a.col;
          f.line_b = b.line;
          f.col_b = b.col;
          f.detail = detail;
          if (worst == RaceVerdict::kProvenRace) {
            ++rep_.races_proven;
          } else {
            ++rep_.races_unprovable;
          }
          rep_.race_findings.push_back(std::move(f));
        }
      }
    }
  }

  void width_pass() {
    std::map<std::pair<int, std::string>, std::vector<int>> widths;
    for (const auto& r : ir_.refs) {
      auto& w = widths[{static_cast<int>(r.space), r.buffer}];
      if (std::count(w.begin(), w.end(), r.elem_bytes) == 0) {
        w.push_back(r.elem_bytes);
      }
    }
    for (auto& [key, w] : widths) {
      std::sort(w.begin(), w.end());
      WidthRecord rec;
      rec.buffer = key.second;
      rec.space = static_cast<MemSpace>(key.first);
      rec.widths = w;
      rec.mixed = w.size() > 1;
      rep_.widths.push_back(std::move(rec));
    }
  }
};

}  // namespace

KernelVerifyReport verify_kernel(const KernelIR& ir,
                                 const KernelContract& contract) {
  return Verifier(ir, contract).run();
}

}  // namespace alsmf::ocl::analyze::verify
