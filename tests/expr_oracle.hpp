// Tree-walking reference semantics for evolving predicates: the differential
// oracle for the compiled evaluator.
//
// The library evaluates predicate functions only through ExprProgram
// (expr/program.hpp), compiled once per subscription install. This header
// keeps the direct reading of the AST — walk the tree, resolve each variable
// by name through an EvalScope — so tests and fuzz harnesses can check the
// compiler, the engines and the analyses against an independent evaluator.
// It is shared by tests/ and fuzz/fuzz_covers.cpp and is never linked into
// the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "expr/variable_registry.hpp"
#include "message/subscription.hpp"

namespace evps::oracle {

/// Evaluate `expr` against `scope`. Division by zero yields +/-inf like
/// IEEE; mod by zero yields NaN. Unbound variables throw
/// UnboundVariableError.
inline double eval(const Expr& expr, const EvalScope& scope) {
  return std::visit(
      [&](const auto& n) -> double {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Expr::Const>) {
          return n.value;
        } else if constexpr (std::is_same_v<T, Expr::Var>) {
          return scope.lookup(VariableTable::instance().intern(n.name));
        } else if constexpr (std::is_same_v<T, Expr::Unary>) {
          const double x = eval(*n.operand, scope);
          switch (n.op) {
            case UnaryOp::kNeg: return -x;
            case UnaryOp::kAbs: return std::fabs(x);
            case UnaryOp::kFloor: return std::floor(x);
            case UnaryOp::kCeil: return std::ceil(x);
            case UnaryOp::kSqrt: return std::sqrt(x);
            case UnaryOp::kSin: return std::sin(x);
            case UnaryOp::kCos: return std::cos(x);
            case UnaryOp::kSign: return x < 0 ? -1.0 : (x > 0 ? 1.0 : 0.0);
          }
          return 0;
        } else if constexpr (std::is_same_v<T, Expr::Binary>) {
          const double a = eval(*n.lhs, scope);
          const double b = eval(*n.rhs, scope);
          switch (n.op) {
            case BinaryOp::kAdd: return a + b;
            case BinaryOp::kSub: return a - b;
            case BinaryOp::kMul: return a * b;
            case BinaryOp::kDiv: return a / b;
            case BinaryOp::kMod: return std::fmod(a, b);
            case BinaryOp::kPow: return std::pow(a, b);
          }
          return 0;
        } else {
          switch (n.fn) {
            case CallFn::kMin:
            case CallFn::kMax: {
              double m = eval(*n.args.front(), scope);
              for (std::size_t i = 1; i < n.args.size(); ++i) {
                const double x = eval(*n.args[i], scope);
                m = n.fn == CallFn::kMin ? std::min(m, x) : std::max(m, x);
              }
              return m;
            }
            case CallFn::kClamp: {
              const double x = eval(*n.args[0], scope);
              const double lo = eval(*n.args[1], scope);
              const double hi = eval(*n.args[2], scope);
              return std::min(std::max(x, lo), hi);
            }
            case CallFn::kStep: return eval(*n.args[0], scope) < 0 ? 0.0 : 1.0;
          }
          return 0;
        }
      },
      expr.node());
}

inline double eval(const ExprPtr& expr, const EvalScope& scope) { return eval(*expr, scope); }

/// A scope binding exactly `bindings` (`t` included, when listed).
inline EvalScope scope_of(std::initializer_list<std::pair<std::string_view, double>> bindings) {
  EvalScope scope;
  for (const auto& [name, value] : bindings) scope.bind(name, value);
  return scope;
}

/// pub_value OP operand. Evolving operands evaluate under `scope`; an
/// unbound variable fails closed (never matches).
inline bool matches(const Predicate& pred, const Value& pub_value, const EvalScope& scope) {
  if (!pred.is_evolving()) return pred.matches(pub_value);
  try {
    return apply_rel_op(pred.op(), pub_value, Value{eval(pred.fun(), scope)});
  } catch (const UnboundVariableError&) {
    return false;
  }
}

/// Full conjunctive match: every predicate's attribute must be present and
/// satisfied. A subscription without predicates matches nothing.
inline bool matches(const Subscription& sub, const Publication& pub, const EvalScope& scope) {
  if (sub.predicates().empty()) return false;
  for (const Predicate& pred : sub.predicates()) {
    const Value* v = pub.get(pred.attr_id());
    if (v == nullptr || !matches(pred, *v, scope)) return false;
  }
  return true;
}

/// Non-evolving version of `pred` under `scope` (a VES/CLEES version). An
/// unbound variable materialises a never-matching `attr < NaN`.
inline Predicate materialize(const Predicate& pred, const EvalScope& scope) {
  if (!pred.is_evolving()) return pred;
  try {
    return Predicate{pred.attribute(), pred.op(), Value{eval(pred.fun(), scope)}};
  } catch (const UnboundVariableError&) {
    return Predicate{pred.attribute(), RelOp::kLt, Value{std::nan("")}};
  }
}

/// Non-evolving version of `sub` under `scope`; metadata is preserved.
inline Subscription materialize(const Subscription& sub, const EvalScope& scope) {
  std::vector<Predicate> preds;
  preds.reserve(sub.predicates().size());
  for (const Predicate& pred : sub.predicates()) preds.push_back(materialize(pred, scope));
  Subscription out{sub.id(), sub.subscriber(), std::move(preds)};
  out.set_mei(sub.mei()).set_tt(sub.tt()).set_validity(sub.validity()).set_epoch(sub.epoch());
  return out;
}

}  // namespace evps::oracle
