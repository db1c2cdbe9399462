// Expression AST for evolving-subscription predicate functions.
//
// The paper replaces the constant operand of a content-based predicate with a
// function over *evolution variables* (Section III-B):
//
//     SubEv : { (a1 op1 fun1(v_a, v_b, ...)), ... }
//
// This module provides the function representation: an immutable expression
// tree over doubles with named variables. Trees are shared
// (shared_ptr<const Expr>) because the same subscription expression is held
// simultaneously by routing tables on several brokers and by the evolving
// engines. Evaluation goes through the compiled form (expr/program.hpp),
// which resolves the names to interned ids once.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace evps {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Thrown when evaluation references a variable the scope does not bind.
class UnboundVariableError : public std::runtime_error {
 public:
  explicit UnboundVariableError(std::string_view name)
      : std::runtime_error("unbound evolution variable: " + std::string(name)) {}
};

enum class BinaryOp : std::uint8_t { kAdd, kSub, kMul, kDiv, kMod, kPow };
enum class UnaryOp : std::uint8_t { kNeg, kAbs, kFloor, kCeil, kSqrt, kSin, kCos, kSign };
/// N-ary builtin functions. kMin/kMax accept >=1 args, kClamp exactly 3,
/// kStep exactly 1 (0 for x<0, 1 otherwise).
enum class CallFn : std::uint8_t { kMin, kMax, kClamp, kStep };

[[nodiscard]] std::string_view to_string(BinaryOp op) noexcept;
[[nodiscard]] std::string_view to_string(UnaryOp op) noexcept;
[[nodiscard]] std::string_view to_string(CallFn fn) noexcept;

/// Immutable expression node.
class Expr {
 public:
  struct Const { double value; };
  struct Var { std::string name; };
  struct Unary { UnaryOp op; ExprPtr operand; };
  struct Binary { BinaryOp op; ExprPtr lhs; ExprPtr rhs; };
  struct Call { CallFn fn; std::vector<ExprPtr> args; };
  using Node = std::variant<Const, Var, Unary, Binary, Call>;

  // Factory functions — the only way to create expressions.
  [[nodiscard]] static ExprPtr constant(double value);
  [[nodiscard]] static ExprPtr variable(std::string name);
  [[nodiscard]] static ExprPtr unary(UnaryOp op, ExprPtr operand);
  [[nodiscard]] static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  [[nodiscard]] static ExprPtr call(CallFn fn, std::vector<ExprPtr> args);

  // Convenience arithmetic factories.
  [[nodiscard]] static ExprPtr add(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kAdd, std::move(a), std::move(b)); }
  [[nodiscard]] static ExprPtr sub(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kSub, std::move(a), std::move(b)); }
  [[nodiscard]] static ExprPtr mul(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kMul, std::move(a), std::move(b)); }
  [[nodiscard]] static ExprPtr div(ExprPtr a, ExprPtr b) { return binary(BinaryOp::kDiv, std::move(a), std::move(b)); }

  /// Collect the names of all variables referenced by this expression.
  void collect_variables(std::set<std::string>& out) const;
  [[nodiscard]] std::set<std::string> variables() const {
    std::set<std::string> out;
    collect_variables(out);
    return out;
  }

  /// True iff the expression references no variables.
  [[nodiscard]] bool is_constant() const noexcept { return const_; }

  /// Structural equality.
  [[nodiscard]] bool equals(const Expr& other) const noexcept;

  /// Parseable textual form (round-trips through parse_expr).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] const Node& node() const noexcept { return node_; }

 private:
  explicit Expr(Node node);
  Node node_;
  bool const_ = false;
};

}  // namespace evps
