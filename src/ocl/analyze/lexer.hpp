// Lexical layer of the OpenCL-C analyzer: the tokenizer, comment stripper,
// `#define` table, constant evaluation and type sizing that the parser
// (parser.hpp) and the IR lowering (ir.hpp) are built on.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace alsmf::ocl::analyze {

struct Token {
  std::string text;
  int line = 0;
  int col = 0;  // 1-based column of the token's first character
};

bool is_ident_start(char c);

/// Replaces // and /* */ comments (and nothing else) with whitespace,
/// preserving line numbers.
std::string strip_comments(const std::string& source);

/// Splits comment-stripped code into identifiers, numeric literals and
/// single punctuation characters, with 1-based line numbers.
std::vector<Token> tokenize(const std::string& code);

/// Object-like `#define NAME value` macros, scanned line by line from
/// comment-stripped code. Function-like macros are skipped.
std::map<std::string, std::string> collect_defines(const std::string& code);

/// Evaluates a whole #define'd name to an integer, if possible: integer
/// literals, #define'd names (resolved recursively), unary minus, + - * /
/// and parens. Returns false when the value involves anything else.
bool eval_define(const std::string& name,
                 const std::map<std::string, std::string>& defines, long& out);

/// sizeof() for the OpenCL scalar/vector types (`float4`, `int2`, ...).
/// `real_t` resolves to `real_t_bytes`. Returns 0 for unknown types.
std::size_t type_size(const std::string& name, std::size_t real_t_bytes);

/// Width of `real_t` from a `typedef <type> real_t;` in the token stream
/// (4 when absent or unreadable).
std::size_t real_t_width(const std::vector<Token>& toks);

/// Underlying type name of a `typedef <type> storage_t;` ("half",
/// "bfloat16", "float", ...), or "" when the source declares no storage
/// typedef (factors are stored as real_t).
std::string storage_t_base(const std::vector<Token>& toks);

/// Width of `storage_t` from its typedef (0 when absent).
std::size_t storage_t_width(const std::vector<Token>& toks);

}  // namespace alsmf::ocl::analyze
