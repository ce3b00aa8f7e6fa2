#include "ocl/analyze/parser.hpp"

#include <cctype>

#include "ocl/analyze/lexer.hpp"

namespace alsmf::ocl::analyze {

namespace {

bool is_type_name(const std::string& s) {
  return s == "void" || s == "real_t" || s == "storage_t" ||
         type_size(s, 4) != 0;
}

bool is_qualifier(const std::string& s) {
  return s == "const" || s == "restrict" || s == "volatile" ||
         s == "unsigned" || s == "static" || s == "__global" ||
         s == "__local" || s == "__constant" || s == "__private";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  TranslationUnit parse() {
    TranslationUnit tu;
    tu.real_t_bytes = real_t_width(toks_);
    tu.storage_t_bytes = storage_t_width(toks_);
    tu.storage_t_base = storage_t_base(toks_);
    while (!eof()) {
      if (peek() == "typedef") {
        while (!eof() && peek() != ";") advance();
        expect(";");
      } else {
        tu.functions.push_back(parse_function());
      }
    }
    return tu;
  }

 private:
  // --- token plumbing ---
  bool eof() const { return pos_ >= toks_.size(); }
  const std::string& peek(std::size_t ahead = 0) const {
    static const std::string kEnd;
    return pos_ + ahead < toks_.size() ? toks_[pos_ + ahead].text : kEnd;
  }
  int line() const {
    return pos_ < toks_.size() ? toks_[pos_].line
                               : (toks_.empty() ? 0 : toks_.back().line);
  }
  int col() const {
    return pos_ < toks_.size() ? toks_[pos_].col
                               : (toks_.empty() ? 0 : toks_.back().col);
  }
  const Token& advance() {
    if (eof()) fail("unexpected end of source");
    return toks_[pos_++];
  }
  void expect(const std::string& s) {
    if (eof() || peek() != s) {
      fail("expected '" + s + "', got '" + (eof() ? "<eof>" : peek()) + "'");
    }
    ++pos_;
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError{line(), msg};
  }

  /// The lexer emits single punctuation characters; multi-character
  /// operators are recombined here. Returns the operator at the cursor (or
  /// "" for non-operators) without consuming; `op_len_` holds its width.
  std::string peek_op() {
    static const char* kTwo[] = {"<=", ">=", "==", "!=", "&&", "||", "+=",
                                 "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                                 "++", "--"};
    const std::string a = peek(), b = peek(1);
    if (a.size() == 1 && b.size() == 1) {
      const std::string two = a + b;
      for (const char* t : kTwo) {
        if (two == t) {
          op_len_ = 2;
          return two;
        }
      }
    }
    op_len_ = 1;
    return a;
  }
  void consume_op() { pos_ += op_len_; }

  // --- declarations ---
  FunctionDecl parse_function() {
    FunctionDecl fn;
    fn.line = line();
    while (peek() == "inline" || peek() == "static" || peek() == "__kernel" ||
           peek() == "__attribute__") {
      if (peek() == "__kernel") fn.is_kernel = true;
      if (peek() == "__attribute__") {
        advance();
        skip_balanced_parens();
        continue;
      }
      advance();
    }
    if (!is_type_name(peek())) fail("expected return type, got '" + peek() + "'");
    advance();  // return type (only void appears; value irrelevant here)
    if (!is_ident()) fail("expected function name");
    fn.name = advance().text;
    expect("(");
    while (peek() != ")") {
      fn.params.push_back(parse_param());
      if (peek() == ",") advance();
    }
    expect(")");
    while (peek() == "__attribute__") {
      advance();
      skip_balanced_parens();
    }
    expect("{");
    while (peek() != "}") fn.body.push_back(parse_stmt());
    expect("}");
    return fn;
  }

  ParamDecl parse_param() {
    ParamDecl p;
    p.line = line();
    while (is_qualifier(peek())) {
      if (peek() == "__global") p.is_global = true;
      if (peek() == "__local") p.is_local = true;
      if (peek() == "const") p.is_const = true;
      advance();
    }
    if (!is_type_name(peek())) fail("expected parameter type, got '" + peek() + "'");
    p.type = advance().text;
    while (peek() == "*" || is_qualifier(peek())) {
      if (peek() == "*") p.is_pointer = true;
      advance();
    }
    if (!is_ident()) fail("expected parameter name");
    p.name = advance().text;
    return p;
  }

  void skip_balanced_parens() {
    expect("(");
    int depth = 1;
    while (depth > 0) {
      const std::string& t = advance().text;
      if (t == "(") ++depth;
      if (t == ")") --depth;
    }
  }

  // --- statements ---
  StmtPtr parse_stmt() {
    auto s = std::make_unique<Stmt>();
    s->line = line();
    s->col = col();
    const std::string& t = peek();
    if (t == "{") {
      advance();
      s->kind = Stmt::Kind::kBlock;
      while (peek() != "}") s->body.push_back(parse_stmt());
      expect("}");
      return s;
    }
    if (t == "if") {
      advance();
      s->kind = Stmt::Kind::kIf;
      expect("(");
      s->cond = parse_expr();
      expect(")");
      s->body.push_back(parse_stmt());
      if (peek() == "else") {
        advance();
        s->else_body.push_back(parse_stmt());
      }
      return s;
    }
    if (t == "for") {
      advance();
      s->kind = Stmt::Kind::kFor;
      expect("(");
      if (peek() == ";") {
        advance();
      } else {
        s->for_init = parse_decl_or_expr_stmt();
      }
      if (peek() != ";") s->cond = parse_expr();
      expect(";");
      if (peek() != ")") s->step = parse_expr();
      expect(")");
      s->body.push_back(parse_stmt());
      return s;
    }
    if (t == "while") {
      advance();
      s->kind = Stmt::Kind::kWhile;
      expect("(");
      s->cond = parse_expr();
      expect(")");
      s->body.push_back(parse_stmt());
      return s;
    }
    if (t == "return") {
      advance();
      s->kind = Stmt::Kind::kReturn;
      if (peek() != ";") s->cond = parse_expr();
      expect(";");
      return s;
    }
    if (t == "continue" || t == "break") {
      s->kind = t == "continue" ? Stmt::Kind::kContinue : Stmt::Kind::kBreak;
      advance();
      expect(";");
      return s;
    }
    if (t == "barrier" && peek(1) == "(") {
      s->kind = Stmt::Kind::kBarrier;
      advance();
      expect("(");
      s->cond = parse_expr();  // the fence flags
      expect(")");
      expect(";");
      return s;
    }
    return parse_decl_or_expr_stmt();
  }

  /// Declaration or expression statement (also the for-init clause).
  /// Consumes the trailing ';'.
  StmtPtr parse_decl_or_expr_stmt() {
    auto s = std::make_unique<Stmt>();
    s->line = line();
    s->col = col();
    const std::size_t save = pos_;
    bool is_local = false;
    while (is_qualifier(peek())) {
      if (peek() == "__local") is_local = true;
      advance();
    }
    if (is_type_name(peek()) &&
        (pos_ + 1 < toks_.size() && is_ident_start(peek(1)[0]) &&
         !is_type_name(peek(1)))) {
      s->kind = Stmt::Kind::kDecl;
      s->is_local = is_local;
      s->type = advance().text;
      s->name = advance().text;
      if (peek() == "[") {
        advance();
        s->array_extent = parse_expr();
        expect("]");
      }
      if (peek() == "=") {
        advance();
        s->init = parse_expr();
      }
      if (peek() == ",") fail("multi-declarator statements are unsupported");
      expect(";");
      return s;
    }
    pos_ = save;
    s->kind = Stmt::Kind::kExpr;
    s->cond = parse_expr();
    expect(";");
    return s;
  }

  // --- expressions ---
  bool is_ident() const {
    return !eof() && !peek().empty() && is_ident_start(peek()[0]) &&
           !std::isdigit(static_cast<unsigned char>(peek()[0]));
  }

  ExprPtr make(Expr::Kind k) {
    auto e = std::make_unique<Expr>();
    e->kind = k;
    e->line = line();
    e->col = col();
    return e;
  }

  ExprPtr parse_expr() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_ternary();
    const std::string op = peek_op();
    if (op == "=" || op == "+=" || op == "-=" || op == "*=" || op == "/=" ||
        op == "%=" || op == "&=" || op == "|=" || op == "^=") {
      auto e = make(Expr::Kind::kBinary);
      e->name = op;
      consume_op();
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(parse_assignment());
      return e;
    }
    return lhs;
  }

  ExprPtr parse_ternary() {
    ExprPtr c = parse_binary(1);
    if (peek() == "?") {
      auto e = make(Expr::Kind::kTernary);
      advance();
      e->kids.push_back(std::move(c));
      e->kids.push_back(parse_assignment());
      expect(":");
      e->kids.push_back(parse_ternary());
      return e;
    }
    return c;
  }

  static int precedence(const std::string& op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == ">" || op == "<=" || op == ">=") return 7;
    if (op == "+" || op == "-") return 8;
    if (op == "*" || op == "/" || op == "%") return 9;
    return 0;
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const std::string op = peek_op();
      const int prec = precedence(op);
      // `++`/`--` pair with assignment handling, not binary precedence.
      if (prec < min_prec || op == "++" || op == "--") return lhs;
      consume_op();
      ExprPtr rhs = parse_binary(prec + 1);
      auto e = make(Expr::Kind::kBinary);
      e->name = op;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    const std::string op = peek_op();
    if (op == "-" || op == "!" || op == "++" || op == "--") {
      auto e = make(Expr::Kind::kUnary);
      e->name = op;
      consume_op();
      e->kids.push_back(parse_unary());
      return e;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      const std::string& t = peek();
      if (t == "(" && e->kind == Expr::Kind::kIdent) {
        auto call = make(Expr::Kind::kCall);
        call->name = e->name;
        call->line = e->line;
        advance();
        while (peek() != ")") {
          call->kids.push_back(parse_assignment());
          if (peek() == ",") advance();
        }
        expect(")");
        e = std::move(call);
      } else if (t == "[") {
        auto idx = make(Expr::Kind::kIndex);
        advance();
        idx->kids.push_back(std::move(e));
        idx->kids.push_back(parse_expr());
        expect("]");
        e = std::move(idx);
      } else if (t == "." && pos_ + 1 < toks_.size() &&
                 is_ident_start(peek(1)[0])) {
        auto mem = make(Expr::Kind::kMember);
        advance();
        mem->name = advance().text;
        mem->kids.push_back(std::move(e));
        e = std::move(mem);
      } else if (peek_op() == "++" || peek_op() == "--") {
        auto post = make(Expr::Kind::kUnary);
        post->name = peek_op();
        consume_op();
        post->kids.push_back(std::move(e));
        e = std::move(post);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    if (eof()) fail("unexpected end of expression");
    const std::string& t = peek();
    if (std::isdigit(static_cast<unsigned char>(t[0]))) {
      const Token& tok = advance();
      bool all_digits = true;
      for (char c : tok.text) {
        if (!std::isdigit(static_cast<unsigned char>(c))) all_digits = false;
      }
      if (all_digits) {
        auto e = make(Expr::Kind::kIntLit);
        e->line = tok.line;
        e->col = tok.col;
        e->ival = std::stol(tok.text);
        return e;
      }
      auto e = make(Expr::Kind::kFloatLit);
      e->line = tok.line;
      e->col = tok.col;
      e->name = tok.text;
      return e;
    }
    if (t == "(") {
      // Cast `(type) unary` vs grouping `(expr)`.
      if (is_type_name(peek(1)) && peek(2) == ")") {
        auto e = make(Expr::Kind::kCast);
        advance();
        e->name = advance().text;
        expect(")");
        e->kids.push_back(parse_unary());
        return e;
      }
      advance();
      ExprPtr e = parse_expr();
      expect(")");
      return e;
    }
    if (is_ident_start(t[0]) &&
        !std::isdigit(static_cast<unsigned char>(t[0]))) {
      auto e = make(Expr::Kind::kIdent);
      e->name = advance().text;
      return e;
    }
    fail("unexpected token '" + t + "' in expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t op_len_ = 1;
};

/// Blanks preprocessor lines (they are captured in `defines` separately),
/// preserving newlines for line numbers.
std::string strip_preprocessor(const std::string& code) {
  std::string out;
  out.reserve(code.size());
  std::size_t start = 0;
  while (start < code.size()) {
    std::size_t nl = code.find('\n', start);
    if (nl == std::string::npos) nl = code.size();
    const std::size_t p = code.find_first_not_of(" \t", start);
    if (!(p != std::string::npos && p < nl && code[p] == '#')) {
      out.append(code, start, nl - start);
    }
    if (nl < code.size()) out.push_back('\n');
    start = nl + 1;
  }
  return out;
}

}  // namespace

TranslationUnit parse_translation_unit(const std::string& source) {
  const std::string code = strip_comments(source);
  Parser parser(tokenize(strip_preprocessor(code)));
  TranslationUnit tu = parser.parse();
  tu.defines = collect_defines(code);
  return tu;
}

}  // namespace alsmf::ocl::analyze
