// Expression / statement AST for the OpenCL-C subset the kernel generator
// emits (ocl/kernel_source.cpp). The parser (parser.hpp) produces it; the
// access-IR lowering (ir.hpp) consumes it. The subset is deliberately
// small — straight-line C with for/if/while, casts, ternaries, calls,
// vector loads and member access — and the parser *throws* on anything
// outside it, so the analyzer can never silently mis-model a construct.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace alsmf::ocl::analyze {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kIntLit,    // ival
    kFloatLit,  // text (e.g. "0.5f")
    kIdent,     // name
    kUnary,     // name = operator ("-", "!", "++", "--"); kids[0]
    kBinary,    // name = operator ("+", "=", "+=", "<", ...); kids[0], kids[1]
    kTernary,   // kids[0] ? kids[1] : kids[2]
    kCall,      // name = callee; kids = arguments
    kIndex,     // kids[0] [ kids[1] ]
    kMember,    // kids[0] . name   (vector components: .s0, .s1, ...)
    kCast,      // name = type; kids[0]
  };
  Kind kind = Kind::kIntLit;
  long ival = 0;
  std::string name;
  std::vector<ExprPtr> kids;
  int line = 0;
  int col = 0;  // 1-based column, for clickable file:line:col diagnostics
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind {
    kDecl,      // type name [array_extent] [= init]
    kExpr,      // expr;
    kIf,        // cond, body, else_body
    kFor,       // for_init, cond, step, body
    kWhile,     // cond, body
    kBlock,     // body
    kReturn,    // expr (may be null)
    kContinue,
    kBreak,
    kBarrier,   // barrier(cond);  cond = the fence flags
  };
  Kind kind = Kind::kExpr;
  int line = 0;
  int col = 0;

  // kDecl
  std::string type;
  std::string name;
  bool is_local = false;  // __local address space
  ExprPtr array_extent;   // null for scalars
  ExprPtr init;

  ExprPtr cond;       // if / for / while condition; kReturn value;
                      // kExpr expression; kBarrier fence flags
  StmtPtr for_init;   // kFor (decl or expr statement; may be null)
  ExprPtr step;       // kFor update expression (may be null)
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;
};

struct ParamDecl {
  std::string type;   // element type ("real_t", "int", ...)
  std::string name;
  bool is_pointer = false;
  bool is_global = false;
  bool is_local = false;
  bool is_const = false;
  int line = 0;
};

struct FunctionDecl {
  std::string name;
  bool is_kernel = false;
  std::vector<ParamDecl> params;
  std::vector<StmtPtr> body;
  int line = 0;
};

struct TranslationUnit {
  std::map<std::string, std::string> defines;  // object-like macros
  std::size_t real_t_bytes = 4;                // from `typedef ... real_t;`
  // From `typedef <type> storage_t;` — the factor/ratings storage width of
  // mixed-precision kernel flavors. 0 bytes / empty base: no storage
  // typedef, buffers are stored at real_t width.
  std::size_t storage_t_bytes = 0;
  std::string storage_t_base;  // "half", "bfloat16", ...
  std::vector<FunctionDecl> functions;
};

/// Thrown by the parser (and the IR lowering) on constructs outside the
/// supported subset. Deep lint converts it into a diagnostic rather than
/// letting an unanalyzable kernel pass silently.
struct ParseError {
  int line = 0;
  std::string message;
};

}  // namespace alsmf::ocl::analyze
