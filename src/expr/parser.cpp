#include "expr/parser.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "expr/program.hpp"

namespace evps {
namespace {

enum class TokKind { kNumber, kIdent, kOp, kLParen, kRParen, kComma, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;
  double number = 0;
  std::size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  [[nodiscard]] const Token& peek() const noexcept { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    current_.offset = pos_;
    if (pos_ >= text_.size()) {
      current_ = Token{TokKind::kEnd, {}, 0, pos_};
      return;
    }
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      lex_number();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t end = pos_;
      while (end < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[end])) != 0 || text_[end] == '_')) {
        ++end;
      }
      current_ = Token{TokKind::kIdent, text_.substr(pos_, end - pos_), 0, pos_};
      pos_ = end;
      return;
    }
    switch (c) {
      case '(': current_ = Token{TokKind::kLParen, text_.substr(pos_, 1), 0, pos_}; break;
      case ')': current_ = Token{TokKind::kRParen, text_.substr(pos_, 1), 0, pos_}; break;
      case ',': current_ = Token{TokKind::kComma, text_.substr(pos_, 1), 0, pos_}; break;
      case '+':
      case '-':
      case '*':
      case '/':
      case '%':
      case '^': current_ = Token{TokKind::kOp, text_.substr(pos_, 1), 0, pos_}; break;
      default:
        throw ParseError("unexpected character '" + std::string(1, c) + "'", pos_,
                         std::string(1, c));
    }
    ++pos_;
  }

  void lex_number() {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double value = 0;
    auto [p, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{}) {
      throw ParseError("malformed number", pos_, std::string(1, text_[pos_]));
    }
    current_ = Token{TokKind::kNumber, text_.substr(pos_, static_cast<std::size_t>(p - begin)),
                     value, pos_};
    pos_ += static_cast<std::size_t>(p - begin);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

/// Fold constant subtrees so repeated evaluation is cheap. Non-finite
/// results are left unfolded: "nan"/"inf" literals would not reparse.
ExprPtr fold(ExprPtr e) {
  if (e->is_constant()) {
    // Already a literal? Keep as-is to avoid churning.
    if (std::holds_alternative<Expr::Const>(e->node())) return e;
    const double value = ExprProgram::compile(*e).eval(EvalScope{});
    if (!std::isfinite(value)) return e;
    return Expr::constant(value);
  }
  return e;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  ExprPtr parse() {
    ExprPtr e = parse_sum();
    const Token& t = lexer_.peek();
    if (t.kind != TokKind::kEnd) {
      throw ParseError("unexpected trailing input '" + std::string(t.text) + "'", t.offset,
                       std::string(t.text));
    }
    return e;
  }

 private:
  ExprPtr parse_sum() {
    ExprPtr lhs = parse_term();
    while (lexer_.peek().kind == TokKind::kOp &&
           (lexer_.peek().text == "+" || lexer_.peek().text == "-")) {
      const Token op = lexer_.take();
      ExprPtr rhs = parse_term();
      lhs = fold(Expr::binary(op.text == "+" ? BinaryOp::kAdd : BinaryOp::kSub, std::move(lhs),
                              std::move(rhs)));
    }
    return lhs;
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    while (lexer_.peek().kind == TokKind::kOp &&
           (lexer_.peek().text == "*" || lexer_.peek().text == "/" ||
            lexer_.peek().text == "%")) {
      const Token op = lexer_.take();
      ExprPtr rhs = parse_factor();
      const BinaryOp bop = op.text == "*"   ? BinaryOp::kMul
                           : op.text == "/" ? BinaryOp::kDiv
                                            : BinaryOp::kMod;
      lhs = fold(Expr::binary(bop, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  ExprPtr parse_factor() {
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "-") {
      lexer_.take();
      return fold(Expr::unary(UnaryOp::kNeg, parse_factor()));
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_primary();
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "^") {
      lexer_.take();
      // Right-associative: a^b^c == a^(b^c).
      ExprPtr exp = parse_factor();
      return fold(Expr::binary(BinaryOp::kPow, std::move(base), std::move(exp)));
    }
    return base;
  }

  ExprPtr parse_primary() {
    const Token t = lexer_.take();
    switch (t.kind) {
      case TokKind::kNumber: return Expr::constant(t.number);
      case TokKind::kLParen: {
        ExprPtr e = parse_sum();
        expect(TokKind::kRParen, ")");
        return e;
      }
      case TokKind::kIdent: {
        if (lexer_.peek().kind == TokKind::kLParen) return parse_call(t);
        return Expr::variable(std::string(t.text));
      }
      default:
        throw ParseError("expected a number, variable, function call or '('", t.offset,
                         std::string(t.text));
    }
  }

  ExprPtr parse_call(const Token& name) {
    lexer_.take();  // consume '('
    std::vector<ExprPtr> args;
    if (lexer_.peek().kind != TokKind::kRParen) {
      args.push_back(parse_sum());
      while (lexer_.peek().kind == TokKind::kComma) {
        lexer_.take();
        args.push_back(parse_sum());
      }
    }
    expect(TokKind::kRParen, ")");

    const auto unary_fn = [&](UnaryOp op) {
      if (args.size() != 1) {
        throw ParseError(std::string(name.text) + " expects 1 argument", name.offset,
                         std::string(name.text));
      }
      return fold(Expr::unary(op, std::move(args[0])));
    };
    const auto nary_fn = [&](CallFn fn) {
      try {
        return fold(Expr::call(fn, std::move(args)));
      } catch (const std::invalid_argument& e) {
        throw ParseError(e.what(), name.offset, std::string(name.text));
      }
    };

    if (name.text == "abs") return unary_fn(UnaryOp::kAbs);
    if (name.text == "floor") return unary_fn(UnaryOp::kFloor);
    if (name.text == "ceil") return unary_fn(UnaryOp::kCeil);
    if (name.text == "sqrt") return unary_fn(UnaryOp::kSqrt);
    if (name.text == "sin") return unary_fn(UnaryOp::kSin);
    if (name.text == "cos") return unary_fn(UnaryOp::kCos);
    if (name.text == "sign") return unary_fn(UnaryOp::kSign);
    if (name.text == "min") return nary_fn(CallFn::kMin);
    if (name.text == "max") return nary_fn(CallFn::kMax);
    if (name.text == "clamp") return nary_fn(CallFn::kClamp);
    if (name.text == "step") return nary_fn(CallFn::kStep);
    throw ParseError("unknown function '" + std::string(name.text) + "'", name.offset,
                     std::string(name.text));
  }

  void expect(TokKind kind, std::string_view what) {
    const Token t = lexer_.take();
    if (t.kind != kind) {
      throw ParseError("expected '" + std::string(what) + "'", t.offset, std::string(t.text));
    }
  }

  Lexer lexer_;
};

}  // namespace

ExprPtr parse_expr(std::string_view text) { return Parser(text).parse(); }

std::optional<ExprPtr> try_parse_expr(std::string_view text, std::string* error) {
  try {
    return parse_expr(text);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace evps
