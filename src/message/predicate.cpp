#include "message/predicate.hpp"

#include <cmath>

namespace evps {

std::string_view to_string(RelOp op) noexcept {
  switch (op) {
    case RelOp::kLt: return "<";
    case RelOp::kLe: return "<=";
    case RelOp::kGt: return ">";
    case RelOp::kGe: return ">=";
    case RelOp::kEq: return "=";
    case RelOp::kNe: return "!=";
  }
  return "?";
}

std::optional<RelOp> parse_rel_op(std::string_view text) noexcept {
  if (text == "<") return RelOp::kLt;
  if (text == "<=") return RelOp::kLe;
  if (text == ">") return RelOp::kGt;
  if (text == ">=") return RelOp::kGe;
  if (text == "=" || text == "==") return RelOp::kEq;
  if (text == "!=" || text == "<>") return RelOp::kNe;
  return std::nullopt;
}

bool apply_rel_op(RelOp op, const Value& lhs, const Value& rhs) noexcept {
  const auto cmp = lhs.compare(rhs);
  if (!cmp.has_value()) return op == RelOp::kNe;  // incomparable: only "not equal" holds
  switch (op) {
    case RelOp::kLt: return *cmp < 0;
    case RelOp::kLe: return *cmp <= 0;
    case RelOp::kGt: return *cmp > 0;
    case RelOp::kGe: return *cmp >= 0;
    case RelOp::kEq: return *cmp == 0;
    case RelOp::kNe: return *cmp != 0;
  }
  return false;
}

Predicate::Predicate(std::string attribute, RelOp op, Value constant)
    : attribute_(std::move(attribute)),
      attr_id_(AttributeTable::instance().intern(attribute_)),
      op_(op),
      operand_(std::move(constant)) {}

Predicate::Predicate(std::string attribute, RelOp op, ExprPtr fun)
    : attribute_(std::move(attribute)),
      attr_id_(AttributeTable::instance().intern(attribute_)),
      op_(op),
      operand_(std::move(fun)) {
  const auto& f = std::get<ExprPtr>(operand_);
  if (!f) throw std::invalid_argument("evolving predicate function must not be null");
  // Constant functions degenerate to static predicates; fold eagerly so the
  // rest of the system treats them as non-evolving. Non-finite constants are
  // kept as (never-matching) expressions: a NaN Value would not round-trip
  // through the codec.
  if (f->is_constant()) {
    const double value = ExprProgram::compile(*f).eval(EvalScope{});
    if (std::isfinite(value)) operand_ = Value{value};
  }
}

bool Predicate::matches(const Value& pub_value) const {
  return apply_rel_op(op_, pub_value, constant());
}

std::set<std::string> Predicate::variables() const {
  if (!is_evolving()) return {};
  return fun()->variables();
}

std::string Predicate::to_string() const {
  std::string out = attribute_;
  out += " ";
  out += evps::to_string(op_);
  out += " ";
  out += is_evolving() ? fun()->to_string() : constant().to_string();
  return out;
}

CompiledPredicate::CompiledPredicate(const Predicate& pred)
    : attr_(pred.attr_id()), op_(pred.op()) {
  if (!pred.is_evolving()) {
    throw std::invalid_argument("CompiledPredicate requires an evolving predicate");
  }
  prog_ = ExprProgram::compile(*pred.fun());
}

double CompiledPredicate::bound(const EvalScope& scope, std::vector<double>& stack,
                                bool& unbound) const {
  try {
    unbound = false;
    return prog_.eval(scope, stack);
  } catch (const UnboundVariableError&) {
    // Fail closed: callers must treat an unbound bound as never-matching
    // regardless of the operator.
    unbound = true;
    return std::nan("");
  }
}

bool CompiledPredicate::matches(const Value& pub_value, const EvalScope& scope,
                                std::vector<double>& stack) const {
  try {
    return apply_rel_op(op_, pub_value, Value{prog_.eval(scope, stack)});
  } catch (const UnboundVariableError&) {
    // Fail closed: a variable the broker has not (yet) learned about makes
    // the predicate unsatisfiable rather than crashing message processing.
    return false;
  }
}

bool Predicate::operator==(const Predicate& other) const noexcept {
  if (attribute_ != other.attribute_ || op_ != other.op_) return false;
  if (is_evolving() != other.is_evolving()) return false;
  if (is_evolving()) return fun()->equals(*other.fun());
  return constant() == other.constant() && constant().is_string() == other.constant().is_string();
}

}  // namespace evps
