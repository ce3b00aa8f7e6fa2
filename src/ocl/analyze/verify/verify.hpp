// Static bounds & race verifier over the access-pattern IR (analyze/ir.hpp).
//
// The engine is an abstract interpretation on two domains:
//  - an interval+stride domain over symbolic dataset shapes (ROWS, COLS,
//    NNZ, ...) that evaluates every affine reference index against the
//    buffer extents a KernelContract declares, yielding a per-reference
//    bounds verdict: proven-safe / proven-violating / unprovable;
//  - a may-happen-in-parallel (MHP) relation built from *barrier
//    intervals*: each kernel is sliced at barriers into statically numbered
//    intervals, two references of distinct work-items may run concurrently
//    when they share an interval (lock-step barrier loops pin their loop
//    variables equal) or sit on the wrap-around boundary of a
//    barrier-carrying loop. For every MHP pair touching a common buffer
//    with at least one store, the symbolic difference of the two indices is
//    solved exactly over per-term delta domains; "no solution" proves the
//    write sets disjoint, a concrete solution is a proven race with a
//    witness, anything else is unprovable.
//
// Everything fails closed: a reference the domain cannot resolve, a loop the
// range rules cannot bound, or a pair the solver cannot decide produces a
// non-proven verdict, and KernelVerifyReport::clean() is false.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ocl/analyze/ir.hpp"

namespace alsmf::ocl::analyze::verify {

/// Symbolic linear expression c + Σ coeff·symbol over named dataset-shape
/// symbols ("ROWS", "NNZ", ...). Coefficients are concrete (K, WS and tile
/// sizes are baked #defines in the generated kernels).
struct SymExpr {
  long c = 0;
  std::map<std::string, long> terms;

  static SymExpr constant(long v) {
    SymExpr e;
    e.c = v;
    return e;
  }
  static SymExpr sym(const std::string& name, long coeff = 1, long c = 0) {
    SymExpr e;
    e.c = c;
    if (coeff != 0) e.terms[name] = coeff;
    return e;
  }
  SymExpr plus(const SymExpr& o, long sign = 1) const;
  SymExpr plus_const(long v) const;
  SymExpr scaled(long s) const;
  long coeff(const std::string& name) const {
    auto it = terms.find(name);
    return it == terms.end() ? 0 : it->second;
  }
  bool is_const() const { return terms.empty(); }
  std::string str() const;
};

/// Per-buffer verification contract: the symbolic element extent plus, for
/// int-valued buffers used in address arithmetic, the range (and shape
/// facts) of the *values* they hold.
struct BufferContract {
  bool has_extent = false;
  SymExpr extent;  // element count

  // Value facts for int buffers (col_idx, row_ptr, ...).
  bool has_values = false;
  SymExpr value_min, value_max;

  // Offsets buffer (CSR row_ptr): monotone non-decreasing, so any
  // `v = buf[i+1] - buf[i]` satisfies buf[i] + v <= offsets_total.
  bool offsets = false;
  SymExpr offsets_total;
};

/// Whole-kernel contract: buffers by argument name, scalar arguments that
/// carry shape symbols, global facts about the symbols, and concrete grid
/// points used to search for violation witnesses.
struct KernelContract {
  std::map<std::string, BufferContract> buffers;
  std::map<std::string, SymExpr> scalar_args;  // "rows" -> ROWS

  std::map<std::string, long> lower;    // symbol >= value (default 0)
  std::map<std::string, SymExpr> upper;  // symbol <= expr

  /// Concrete, mutually consistent shape assignments used to *prove* a
  /// violation (every symbol the report may mention must be assigned).
  std::vector<std::map<std::string, long>> witness_grid;
};

enum class BoundsVerdict { kProvenSafe, kProvenViolating, kUnprovable };
enum class RaceVerdict { kProvenFree, kProvenRace, kUnprovable };

const char* to_string(BoundsVerdict v);
const char* to_string(RaceVerdict v);

struct BoundsFinding {
  std::string buffer;
  MemSpace space = MemSpace::kGlobal;
  bool is_store = false;
  BoundsVerdict verdict = BoundsVerdict::kUnprovable;
  int line = 0;
  int col = 0;
  std::string index;   // pretty-printed index expression
  std::string detail;  // proof obligation / witness description
};

struct RaceFinding {
  std::string buffer;
  MemSpace space = MemSpace::kLocal;
  RaceVerdict verdict = RaceVerdict::kUnprovable;
  bool cross_group = false;
  int line_a = 0, col_a = 0;
  int line_b = 0, col_b = 0;
  std::string detail;
};

/// Access-width record: every element width observed on a buffer (the
/// fp16/bf16 storage axis re-verifies against these for free).
struct WidthRecord {
  std::string buffer;
  MemSpace space = MemSpace::kGlobal;
  std::vector<int> widths;  // distinct element widths, ascending
  bool mixed = false;
};

struct KernelVerifyReport {
  std::string kernel;

  int refs_total = 0;
  int refs_proven_safe = 0;
  int refs_proven_violating = 0;
  int refs_unprovable = 0;
  std::vector<BoundsFinding> bounds_findings;  // non-proven-safe refs only

  int pairs_checked = 0;
  int races_proven = 0;
  int races_unprovable = 0;
  std::vector<RaceFinding> race_findings;  // non-proven-free pairs only

  std::vector<WidthRecord> widths;

  /// Unanalyzable kernel / missing contract: recorded here, never dropped.
  std::vector<std::string> errors;

  bool bounds_clean() const {
    return errors.empty() && refs_proven_violating == 0 &&
           refs_unprovable == 0;
  }
  bool races_clean() const {
    return errors.empty() && races_proven == 0 && races_unprovable == 0;
  }
  bool clean() const { return bounds_clean() && races_clean(); }
};

/// Verifies one lowered kernel against its contract.
KernelVerifyReport verify_kernel(const KernelIR& ir,
                                 const KernelContract& contract);

}  // namespace alsmf::ocl::analyze::verify
