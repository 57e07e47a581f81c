#include "metrics/cbi/pp_eval.hpp"

#include <cctype>
#include <cstdlib>
#include <vector>

namespace hacc::metrics::cbi {

namespace {

struct Token {
  enum class Kind { kNumber, kIdent, kOp, kLParen, kRParen, kEnd } kind{Kind::kEnd};
  long number = 0;
  std::string text{};
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  Token next() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= s_.size()) return {Token::Kind::kEnd};
    const char c = s_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) return lex_number();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return lex_ident();
    if (c == '(') {
      ++pos_;
      return {Token::Kind::kLParen};
    }
    if (c == ')') {
      ++pos_;
      return {Token::Kind::kRParen};
    }
    return lex_op();
  }

  bool failed() const { return failed_; }

 private:
  Token lex_number() {
    char* end = nullptr;
    const long v = std::strtol(s_.c_str() + pos_, &end, 0);  // dec/hex/octal
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    // Swallow integer suffixes.
    while (pos_ < s_.size() && (std::tolower(s_[pos_]) == 'u' || std::tolower(s_[pos_]) == 'l')) {
      ++pos_;
    }
    Token t{Token::Kind::kNumber};
    t.number = v;
    return t;
  }

  Token lex_ident() {
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '_')) {
      ++pos_;
    }
    Token t{Token::Kind::kIdent};
    t.text = s_.substr(start, pos_ - start);
    return t;
  }

  Token lex_op() {
    static const char* two_char[] = {"&&", "||", "==", "!=", "<=", ">=", "<<", ">>"};
    for (const char* op : two_char) {
      if (s_.compare(pos_, 2, op) == 0) {
        pos_ += 2;
        Token t{Token::Kind::kOp};
        t.text = op;
        return t;
      }
    }
    const char c = s_[pos_];
    if (std::string("+-*/%<>!~&|^").find(c) != std::string::npos) {
      ++pos_;
      Token t{Token::Kind::kOp};
      t.text = std::string(1, c);
      return t;
    }
    failed_ = true;
    ++pos_;
    Token t{Token::Kind::kOp};
    t.text = "?";
    return t;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

class Parser {
 public:
  Parser(const std::string& expr, const DefineMap& defines, int depth)
      : defines_(defines), depth_(depth) {
    Lexer lex(expr);
    for (;;) {
      Token t = lex.next();
      const bool end = t.kind == Token::Kind::kEnd;
      tokens_.push_back(std::move(t));
      if (end) break;
    }
    if (lex.failed()) ok_ = false;
  }

  EvalResult run() {
    const long v = parse_or();
    if (peek().kind != Token::Kind::kEnd) ok_ = false;
    return {v, ok_};
  }

 private:
  const Token& peek() const { return tokens_[idx_]; }
  // Stops at kEnd, so peek() stays in range after a truncated "1 +".
  Token take() { return tokens_[tokens_[idx_].kind == Token::Kind::kEnd ? idx_ : idx_++]; }
  bool accept_op(const char* op) {
    if (peek().kind == Token::Kind::kOp && peek().text == op) {
      ++idx_;
      return true;
    }
    return false;
  }

  long parse_or() {
    long v = parse_and();
    while (accept_op("||")) v = (v != 0) | (parse_and() != 0);
    return v;
  }
  long parse_and() {
    long v = parse_bitor();
    while (accept_op("&&")) {
      const long rhs = parse_bitor();
      v = (v != 0) && (rhs != 0);
    }
    return v;
  }
  long parse_bitor() {
    long v = parse_bitxor();
    while (accept_op("|")) v |= parse_bitxor();
    return v;
  }
  long parse_bitxor() {
    long v = parse_bitand();
    while (accept_op("^")) v ^= parse_bitand();
    return v;
  }
  long parse_bitand() {
    long v = parse_equality();
    while (accept_op("&")) v &= parse_equality();
    return v;
  }
  long parse_equality() {
    long v = parse_relational();
    for (;;) {
      if (accept_op("==")) {
        v = v == parse_relational();
      } else if (accept_op("!=")) {
        v = v != parse_relational();
      } else {
        return v;
      }
    }
  }
  long parse_relational() {
    long v = parse_shift();
    for (;;) {
      if (accept_op("<=")) {
        v = v <= parse_shift();
      } else if (accept_op(">=")) {
        v = v >= parse_shift();
      } else if (accept_op("<")) {
        v = v < parse_shift();
      } else if (accept_op(">")) {
        v = v > parse_shift();
      } else {
        return v;
      }
    }
  }
  long parse_shift() {
    long v = parse_additive();
    for (;;) {
      if (accept_op("<<")) {
        v <<= parse_additive();
      } else if (accept_op(">>")) {
        v >>= parse_additive();
      } else {
        return v;
      }
    }
  }
  long parse_additive() {
    long v = parse_multiplicative();
    for (;;) {
      if (accept_op("+")) {
        v += parse_multiplicative();
      } else if (accept_op("-")) {
        v -= parse_multiplicative();
      } else {
        return v;
      }
    }
  }
  long parse_multiplicative() {
    long v = parse_unary();
    for (;;) {
      if (accept_op("*")) {
        v *= parse_unary();
      } else if (accept_op("/")) {
        const long d = parse_unary();
        v = d != 0 ? v / d : (ok_ = false, 0);
      } else if (accept_op("%")) {
        const long d = parse_unary();
        v = d != 0 ? v % d : (ok_ = false, 0);
      } else {
        return v;
      }
    }
  }
  long parse_unary() {
    if (accept_op("!")) return parse_unary() == 0;
    if (accept_op("~")) return ~parse_unary();
    if (accept_op("-")) return -parse_unary();
    if (accept_op("+")) return parse_unary();
    return parse_primary();
  }

  long parse_primary() {
    const Token t = take();
    switch (t.kind) {
      case Token::Kind::kNumber:
        return t.number;
      case Token::Kind::kLParen: {
        const long v = parse_or();
        if (peek().kind == Token::Kind::kRParen) {
          ++idx_;
        } else {
          ok_ = false;
        }
        return v;
      }
      case Token::Kind::kIdent:
        if (t.text == "defined") return parse_defined();
        return resolve_identifier(t.text);
      default:
        ok_ = false;
        return 0;
    }
  }

  long parse_defined() {
    bool parens = false;
    if (peek().kind == Token::Kind::kLParen) {
      parens = true;
      ++idx_;
    }
    if (peek().kind != Token::Kind::kIdent) {
      ok_ = false;
      return 0;
    }
    const std::string name = take().text;
    if (parens) {
      if (peek().kind == Token::Kind::kRParen) {
        ++idx_;
      } else {
        ok_ = false;
      }
    }
    return defines_.count(name) ? 1 : 0;
  }

  long resolve_identifier(const std::string& name) {
    const auto it = defines_.find(name);
    if (it == defines_.end()) return 0;  // undefined identifiers are 0
    if (it->second.empty()) return 1;    // plain #define NAME
    if (depth_ <= 0) {
      ok_ = false;
      return 0;
    }
    Parser sub(it->second, defines_, depth_ - 1);
    const EvalResult r = sub.run();
    if (!r.ok) ok_ = false;
    return r.value;
  }

  const DefineMap& defines_;
  int depth_;
  std::vector<Token> tokens_;
  std::size_t idx_ = 0;
  bool ok_ = true;
};

}  // namespace

EvalResult eval_pp_expression(const std::string& expr, const DefineMap& defines) {
  Parser parser(expr, defines, /*depth=*/16);
  return parser.run();
}

}  // namespace hacc::metrics::cbi
