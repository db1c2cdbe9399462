// Content-based predicates, static and evolving.
//
// A static predicate compares a publication attribute against a constant
// Value:            (price < 15.29)
// An evolving predicate compares it against an expression over evolution
// variables:        (x >= (-3 + t) * v)
//
// Predicates within one subscription are conjunctive (Section III-A).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/attribute_table.hpp"
#include "common/value.hpp"
#include "expr/ast.hpp"
#include "expr/program.hpp"

namespace evps {

enum class RelOp : std::uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

[[nodiscard]] std::string_view to_string(RelOp op) noexcept;
[[nodiscard]] std::optional<RelOp> parse_rel_op(std::string_view text) noexcept;

/// Apply `op` to (lhs, rhs) in the content-based sense; incomparable values
/// (string vs numeric) never satisfy any operator except kNe.
[[nodiscard]] bool apply_rel_op(RelOp op, const Value& lhs, const Value& rhs) noexcept;

class Predicate {
 public:
  /// Static predicate: attribute `op` constant.
  Predicate(std::string attribute, RelOp op, Value constant);

  /// Evolving predicate: attribute `op` fun(vars...). If `fun` is itself
  /// constant, the predicate degenerates to a static one.
  Predicate(std::string attribute, RelOp op, ExprPtr fun);

  [[nodiscard]] const std::string& attribute() const noexcept { return attribute_; }
  /// Interned id of attribute(); cached at construction so matching never
  /// hashes the name.
  [[nodiscard]] AttrId attr_id() const noexcept { return attr_id_; }
  [[nodiscard]] RelOp op() const noexcept { return op_; }

  [[nodiscard]] bool is_evolving() const noexcept {
    return std::holds_alternative<ExprPtr>(operand_);
  }

  /// Static operand; only valid when !is_evolving().
  [[nodiscard]] const Value& constant() const { return std::get<Value>(operand_); }

  /// Evolving operand; only valid when is_evolving().
  [[nodiscard]] const ExprPtr& fun() const { return std::get<ExprPtr>(operand_); }

  /// Match a publication attribute value; requires !is_evolving() (evolving
  /// predicates evaluate through CompiledPredicate).
  [[nodiscard]] bool matches(const Value& pub_value) const;

  /// Variables referenced by the operand (empty for static predicates).
  [[nodiscard]] std::set<std::string> variables() const;

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const Predicate& other) const noexcept;

 private:
  std::string attribute_;
  AttrId attr_id_ = kInvalidAttrId;
  RelOp op_;
  std::variant<Value, ExprPtr> operand_;
};

/// Install-time compiled form of an evolving predicate: attribute resolved to
/// its interned AttrId and the function lowered to a flat ExprProgram, so the
/// per-publication evaluation loop (LEES/CLEES/hybrid) does integer loads
/// only. Requires pred.is_evolving() (static parts live in the matcher).
class CompiledPredicate {
 public:
  CompiledPredicate() = default;
  explicit CompiledPredicate(const Predicate& pred);

  [[nodiscard]] AttrId attr() const noexcept { return attr_; }
  [[nodiscard]] RelOp op() const noexcept { return op_; }
  [[nodiscard]] const ExprProgram& program() const noexcept { return prog_; }

  /// Bound value under `scope`; NaN when a referenced variable is unbound
  /// (`unbound` reports which). Allocation-free in steady state.
  [[nodiscard]] double bound(const EvalScope& scope, std::vector<double>& stack,
                             bool& unbound) const;

  /// Evaluate against a publication value: pub_value OP program(scope).
  /// Unbound variables fail closed (never match).
  [[nodiscard]] bool matches(const Value& pub_value, const EvalScope& scope,
                             std::vector<double>& stack) const;

 private:
  AttrId attr_ = kInvalidAttrId;
  RelOp op_ = RelOp::kLt;
  ExprProgram prog_;
};

}  // namespace evps
