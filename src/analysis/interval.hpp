// Interval abstract domain for evolution expressions.
//
// The static analyzer (analysis/analyzer.hpp) decides subscribe-time verdicts
// — unsatisfiable, constant, advertisement-uncovered — by bounding the value
// each evolving predicate's function can take given declared evolution-
// variable ranges. This header provides the domain those bounds live in and
// an abstract interpreter over compiled `ExprProgram`s.
//
// An Interval over-approximates the set of doubles an expression can
// evaluate to: a closed numeric range [lo, hi] plus a `maybe_nan` flag
// (NaN is not ordered, so it cannot live inside the range). The numeric
// range may be empty (lo > hi) when the expression *always* evaluates to
// NaN — e.g. sqrt of a provably negative operand.
//
// Soundness contract: for every concrete evaluation of the program under
// variable values drawn from the supplied per-variable intervals, the result
// is either NaN (then maybe_nan is true) or a double inside [lo, hi].
// tests/test_analysis_soundness.cpp validates this against brute-force
// sampling. Two properties keep the verdicts trustworthy:
//
//   * Outward rounding — endpoint arithmetic on non-degenerate intervals is
//     widened by one ulp per operation, so floating-point rounding can never
//     move a reachable value outside the interval.
//   * Point exactness — when every operand interval is a single point, the
//     abstract operation performs the *same* double computation the
//     evaluator would, so a derived point interval is bit-identical to what
//     the lazy path computes (this is what makes constant folding safe).
#pragma once

#include <cmath>
#include <limits>

#include "common/variable_table.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"

namespace evps {

struct Interval {
  /// Closed numeric range; lo > hi encodes "no numeric value is reachable"
  /// (the expression always evaluates to NaN).
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  /// Evaluation may produce NaN (0/0, sqrt of a negative, fmod by 0, ...).
  bool maybe_nan = false;

  [[nodiscard]] static Interval top() noexcept { return Interval{}; }
  /// Unknown variable: any double including NaN.
  [[nodiscard]] static Interval unknown() noexcept {
    Interval i;
    i.maybe_nan = true;
    return i;
  }
  [[nodiscard]] static Interval nan_only() noexcept {
    Interval i;
    i.lo = std::numeric_limits<double>::infinity();
    i.hi = -std::numeric_limits<double>::infinity();
    i.maybe_nan = true;
    return i;
  }
  /// Exact singleton. point(NaN) degenerates to nan_only().
  [[nodiscard]] static Interval point(double v) noexcept;
  [[nodiscard]] static Interval range(double lo, double hi) noexcept {
    Interval i;
    i.lo = lo;
    i.hi = hi;
    return i;
  }

  /// No numeric value reachable (always-NaN expression).
  [[nodiscard]] bool numeric_empty() const noexcept { return !(lo <= hi); }
  /// Exactly one reachable value and it is never NaN.
  [[nodiscard]] bool is_point() const noexcept { return lo == hi && !maybe_nan; }
  [[nodiscard]] bool contains(double v) const noexcept { return lo <= v && v <= hi; }
  /// Sound membership test for a concrete evaluation result.
  [[nodiscard]] bool admits(double v) const noexcept {
    return std::isnan(v) ? maybe_nan : contains(v);
  }
};

/// Per-variable bounds supplied to the abstract interpreter. Unknown
/// variables (never declared) must map to Interval::unknown().
class VarBounds {
 public:
  virtual ~VarBounds() = default;
  [[nodiscard]] virtual Interval bounds(VarId var) const = 0;
};

/// VarBounds over a registry's declared ranges: `t` maps to [0, +inf)
/// (elapsed time since subscription epoch is never negative), declared
/// variables to their range, everything else to unknown (any double or NaN).
class RegistryVarBounds final : public VarBounds {
 public:
  explicit RegistryVarBounds(const VariableRegistry& registry) noexcept : registry_(&registry) {}
  [[nodiscard]] Interval bounds(VarId var) const override;

 private:
  const VariableRegistry* registry_;
};

// Abstract transfer functions, one per ExprProgram opcode. All are sound
// over-approximations of the corresponding evaluator step (including its NaN
// quirks: sign/step map NaN to 0/1, min/max folds skip NaN in non-leading
// operands). Exposed for direct unit testing.
[[nodiscard]] Interval iv_neg(const Interval& a) noexcept;
[[nodiscard]] Interval iv_abs(const Interval& a) noexcept;
[[nodiscard]] Interval iv_floor(const Interval& a) noexcept;
[[nodiscard]] Interval iv_ceil(const Interval& a) noexcept;
[[nodiscard]] Interval iv_sqrt(const Interval& a) noexcept;
[[nodiscard]] Interval iv_sin(const Interval& a) noexcept;
[[nodiscard]] Interval iv_cos(const Interval& a) noexcept;
[[nodiscard]] Interval iv_sign(const Interval& a) noexcept;
[[nodiscard]] Interval iv_step(const Interval& a) noexcept;
[[nodiscard]] Interval iv_add(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_sub(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_mul(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_div(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_mod(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_pow(const Interval& a, const Interval& b) noexcept;
/// std::min(a, b) / std::max(a, b) with the evaluator's asymmetric NaN rule:
/// a leading NaN sticks, a trailing NaN is skipped.
[[nodiscard]] Interval iv_min2(const Interval& a, const Interval& b) noexcept;
[[nodiscard]] Interval iv_max2(const Interval& a, const Interval& b) noexcept;

/// Abstractly interpret `prog` with variables bounded by `vars`.
/// The program must already have passed verify_program (see
/// analysis/verifier.hpp); malformed programs throw std::logic_error.
[[nodiscard]] Interval eval_interval(const ExprProgram& prog, const VarBounds& vars);

}  // namespace evps
