#include "expr/ast.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace evps {

std::string_view to_string(BinaryOp op) noexcept {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kPow: return "^";
  }
  return "?";
}

std::string_view to_string(UnaryOp op) noexcept {
  switch (op) {
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kAbs: return "abs";
    case UnaryOp::kFloor: return "floor";
    case UnaryOp::kCeil: return "ceil";
    case UnaryOp::kSqrt: return "sqrt";
    case UnaryOp::kSin: return "sin";
    case UnaryOp::kCos: return "cos";
    case UnaryOp::kSign: return "sign";
  }
  return "?";
}

std::string_view to_string(CallFn fn) noexcept {
  switch (fn) {
    case CallFn::kMin: return "min";
    case CallFn::kMax: return "max";
    case CallFn::kClamp: return "clamp";
    case CallFn::kStep: return "step";
  }
  return "?";
}

namespace {

bool node_is_constant(const Expr::Node& node) {
  return std::visit(
      [](const auto& n) -> bool {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Expr::Const>) {
          return true;
        } else if constexpr (std::is_same_v<T, Expr::Var>) {
          return false;
        } else if constexpr (std::is_same_v<T, Expr::Unary>) {
          return n.operand->is_constant();
        } else if constexpr (std::is_same_v<T, Expr::Binary>) {
          return n.lhs->is_constant() && n.rhs->is_constant();
        } else {
          for (const auto& a : n.args) {
            if (!a->is_constant()) return false;
          }
          return true;
        }
      },
      node);
}

std::size_t expected_arity_min(CallFn fn) {
  switch (fn) {
    case CallFn::kMin:
    case CallFn::kMax: return 1;
    case CallFn::kClamp: return 3;
    case CallFn::kStep: return 1;
  }
  return 0;
}

std::size_t expected_arity_max(CallFn fn) {
  switch (fn) {
    case CallFn::kMin:
    case CallFn::kMax: return SIZE_MAX;
    case CallFn::kClamp: return 3;
    case CallFn::kStep: return 1;
  }
  return 0;
}

}  // namespace

Expr::Expr(Node node) : node_(std::move(node)), const_(node_is_constant(node_)) {}

ExprPtr Expr::constant(double value) { return ExprPtr(new Expr(Const{value})); }

ExprPtr Expr::variable(std::string name) {
  if (name.empty()) throw std::invalid_argument("variable name must not be empty");
  return ExprPtr(new Expr(Var{std::move(name)}));
}

ExprPtr Expr::unary(UnaryOp op, ExprPtr operand) {
  if (!operand) throw std::invalid_argument("unary operand must not be null");
  return ExprPtr(new Expr(Unary{op, std::move(operand)}));
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  if (!lhs || !rhs) throw std::invalid_argument("binary operands must not be null");
  return ExprPtr(new Expr(Binary{op, std::move(lhs), std::move(rhs)}));
}

ExprPtr Expr::call(CallFn fn, std::vector<ExprPtr> args) {
  if (args.size() < expected_arity_min(fn) || args.size() > expected_arity_max(fn)) {
    throw std::invalid_argument("wrong arity for builtin " + std::string(evps::to_string(fn)));
  }
  for (const auto& a : args) {
    if (!a) throw std::invalid_argument("call argument must not be null");
  }
  return ExprPtr(new Expr(Call{fn, std::move(args)}));
}

void Expr::collect_variables(std::set<std::string>& out) const {
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Var>) {
          out.insert(n.name);
        } else if constexpr (std::is_same_v<T, Unary>) {
          n.operand->collect_variables(out);
        } else if constexpr (std::is_same_v<T, Binary>) {
          n.lhs->collect_variables(out);
          n.rhs->collect_variables(out);
        } else if constexpr (std::is_same_v<T, Call>) {
          for (const auto& a : n.args) a->collect_variables(out);
        }
      },
      node_);
}

bool Expr::equals(const Expr& other) const noexcept {
  if (node_.index() != other.node_.index()) return false;
  return std::visit(
      [&](const auto& a) -> bool {
        using T = std::decay_t<decltype(a)>;
        const auto& b = std::get<T>(other.node_);
        if constexpr (std::is_same_v<T, Const>) {
          return a.value == b.value;
        } else if constexpr (std::is_same_v<T, Var>) {
          return a.name == b.name;
        } else if constexpr (std::is_same_v<T, Unary>) {
          return a.op == b.op && a.operand->equals(*b.operand);
        } else if constexpr (std::is_same_v<T, Binary>) {
          return a.op == b.op && a.lhs->equals(*b.lhs) && a.rhs->equals(*b.rhs);
        } else {
          if (a.fn != b.fn || a.args.size() != b.args.size()) return false;
          for (std::size_t i = 0; i < a.args.size(); ++i) {
            if (!a.args[i]->equals(*b.args[i])) return false;
          }
          return true;
        }
      },
      node_);
}

std::string Expr::to_string() const {
  std::ostringstream os;
  os.precision(17);  // max_digits10: doubles survive the round-trip exactly
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Const>) {
          // Parenthesise negatives so precedence survives reparsing
          // (e.g. (-2) ^ t is not -(2 ^ t)).
          if (std::signbit(n.value)) {
            os << "(" << n.value << ")";
          } else {
            os << n.value;
          }
        } else if constexpr (std::is_same_v<T, Var>) {
          os << n.name;
        } else if constexpr (std::is_same_v<T, Unary>) {
          if (n.op == UnaryOp::kNeg) {
            os << "(-" << n.operand->to_string() << ")";
          } else {
            os << evps::to_string(n.op) << "(" << n.operand->to_string() << ")";
          }
        } else if constexpr (std::is_same_v<T, Binary>) {
          os << "(" << n.lhs->to_string() << " " << evps::to_string(n.op) << " "
             << n.rhs->to_string() << ")";
        } else {
          os << evps::to_string(n.fn) << "(";
          for (std::size_t i = 0; i < n.args.size(); ++i) {
            if (i != 0) os << ", ";
            os << n.args[i]->to_string();
          }
          os << ")";
        }
      },
      node_);
  return os.str();
}

}  // namespace evps
