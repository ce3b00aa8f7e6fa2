#include "ocl/analyze/lexer.hpp"

#include <algorithm>
#include <cctype>

namespace alsmf::ocl::analyze {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

std::string strip_comments(const std::string& source) {
  std::string code;
  code.reserve(source.size());
  enum class State { kCode, kLine, kBlock } state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char ch = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (ch == '/' && next == '/') {
          state = State::kLine;
          ++i;
        } else if (ch == '/' && next == '*') {
          state = State::kBlock;
          ++i;
        } else {
          code.push_back(ch);
        }
        break;
      case State::kLine:
        if (ch == '\n') {
          state = State::kCode;
          code.push_back('\n');
        }
        break;
      case State::kBlock:
        if (ch == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (ch == '\n') {
          code.push_back('\n');
        }
        break;
    }
  }
  return code;
}

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t line_start = 0;  // offset just past the last newline
  const auto col_of = [&](std::size_t i) {
    return static_cast<int>(i - line_start) + 1;
  };
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      toks.push_back({code.substr(i, j - i), line, col_of(i)});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < code.size() && (is_ident_char(code[j]) || code[j] == '.')) ++j;
      toks.push_back({code.substr(i, j - i), line, col_of(i)});
      i = j;
    } else {
      toks.push_back({std::string(1, c), line, col_of(i)});
      ++i;
    }
  }
  return toks;
}

std::map<std::string, std::string> collect_defines(const std::string& code) {
  std::map<std::string, std::string> defines;
  std::size_t start = 0;
  while (start <= code.size()) {
    const std::size_t nl = code.find('\n', start);
    const std::string ln =
        code.substr(start, nl == std::string::npos ? nl : nl - start);
    start = nl == std::string::npos ? code.size() + 1 : nl + 1;
    std::size_t p = ln.find_first_not_of(" \t");
    if (p == std::string::npos || ln.compare(p, 7, "#define") != 0) continue;
    p += 7;
    p = ln.find_first_not_of(" \t", p);
    if (p == std::string::npos || !is_ident_start(ln[p])) continue;
    std::size_t q = p;
    while (q < ln.size() && is_ident_char(ln[q])) ++q;
    const std::string name = ln.substr(p, q - p);
    if (q < ln.size() && ln[q] == '(') continue;  // function-like macro
    defines[name] = ln.substr(q);
  }
  return defines;
}

namespace {

bool eval_const_expr(const std::vector<Token>& toks, std::size_t& pos,
                     const std::map<std::string, std::string>& defines,
                     int depth, long& out);

bool eval_atom(const std::vector<Token>& toks, std::size_t& pos,
               const std::map<std::string, std::string>& defines, int depth,
               long& out) {
  if (depth > 8 || pos >= toks.size()) return false;
  const std::string& s = toks[pos].text;
  if (s == "-") {
    ++pos;
    if (!eval_atom(toks, pos, defines, depth + 1, out)) return false;
    out = -out;
    return true;
  }
  if (s == "(") {
    ++pos;
    if (!eval_const_expr(toks, pos, defines, depth + 1, out)) return false;
    if (pos >= toks.size() || toks[pos].text != ")") return false;
    ++pos;
    return true;
  }
  if (std::isdigit(static_cast<unsigned char>(s[0]))) {
    if (s.size() > 12 || !std::all_of(s.begin(), s.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c));
        })) {
      return false;
    }
    out = std::stol(s);
    ++pos;
    return true;
  }
  auto it = defines.find(s);
  if (it == defines.end()) return false;
  std::vector<Token> sub = tokenize(it->second);
  std::size_t sp = 0;
  if (!eval_const_expr(sub, sp, defines, depth + 1, out) || sp != sub.size()) {
    return false;
  }
  ++pos;
  return true;
}

/// Integer literals, #define'd names, unary minus, + - * / and parens,
/// left to right; advances `pos`.
bool eval_const_expr(const std::vector<Token>& toks, std::size_t& pos,
                     const std::map<std::string, std::string>& defines,
                     int depth, long& out) {
  long acc = 0;
  if (!eval_atom(toks, pos, defines, depth, acc)) return false;
  while (pos < toks.size()) {
    const std::string& op = toks[pos].text;
    if (op != "*" && op != "/" && op != "+" && op != "-") break;
    ++pos;
    long rhs = 0;
    if (!eval_atom(toks, pos, defines, depth, rhs)) return false;
    if (op == "*") {
      acc *= rhs;
    } else if (op == "/") {
      if (rhs == 0) return false;
      acc /= rhs;
    } else if (op == "+") {
      acc += rhs;
    } else {
      acc -= rhs;
    }
  }
  out = acc;
  return true;
}

}  // namespace

bool eval_define(const std::string& name,
                 const std::map<std::string, std::string>& defines, long& out) {
  const auto it = defines.find(name);
  if (it == defines.end()) return false;
  std::vector<Token> sub = tokenize(it->second);
  std::size_t pos = 0;
  return eval_const_expr(sub, pos, defines, 0, out) && pos == sub.size();
}

std::size_t type_size(const std::string& name, std::size_t real_t_bytes) {
  static const std::map<std::string, std::size_t> kScalar = {
      {"char", 1},  {"uchar", 1},  {"short", 2}, {"ushort", 2}, {"int", 4},
      {"uint", 4},  {"float", 4},  {"long", 8},  {"ulong", 8},  {"double", 8},
      {"half", 2},
  };
  if (name == "real_t") return real_t_bytes;
  if (name == "bfloat16") return 2;  // storage-only type (no device arithmetic)
  // Vector types: base type + lane-count suffix (float4, int2, ...).
  std::size_t split = name.size();
  while (split > 0 &&
         std::isdigit(static_cast<unsigned char>(name[split - 1]))) {
    --split;
  }
  const auto it = kScalar.find(name.substr(0, split));
  if (it == kScalar.end() || name.size() - split > 2) return 0;
  const std::size_t lanes =
      split < name.size() ? std::stoul(name.substr(split)) : 1;
  return lanes > 0 && lanes <= 16 ? it->second * lanes : 0;
}

std::size_t real_t_width(const std::vector<Token>& toks) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "typedef" && toks[i + 2].text == "real_t") {
      const std::size_t w = type_size(toks[i + 1].text, 4);
      return w == 0 ? 4 : w;
    }
  }
  return 4;
}

std::string storage_t_base(const std::vector<Token>& toks) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "typedef" && toks[i + 2].text == "storage_t") {
      return toks[i + 1].text;
    }
  }
  return "";
}

std::size_t storage_t_width(const std::vector<Token>& toks) {
  const std::string base = storage_t_base(toks);
  if (base.empty()) return 0;
  const std::size_t w = type_size(base, 4);
  return w == 0 ? 4 : w;
}

}  // namespace alsmf::ocl::analyze
