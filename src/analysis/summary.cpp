#include "analysis/summary.hpp"

#include <cmath>
#include <utility>

#include "analysis/verifier.hpp"

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ValueSet numeric_only(double lo, bool lo_open, double hi, bool hi_open) {
  ValueSet s;
  s.lo = lo;
  s.lo_open = lo_open;
  s.hi = hi;
  s.hi_open = hi_open;
  s.nan = false;
  s.strings = ValueSet::Strings::kNone;
  return s;
}

/// Exact satisfying set of a static predicate, except for the cases the
/// domain cannot express: lexicographic string comparisons and int
/// constants that fail compares_as_double degrade per `outer` (the outer set
/// widens, the inner one empties).
ValueSet static_pred_set(RelOp op, const Value& c, bool outer) {
  if (c.is_string()) {
    switch (op) {
      case RelOp::kEq: {
        ValueSet s = ValueSet::nothing();
        s.strings = ValueSet::Strings::kOne;
        s.str = c.as_string();
        return s;
      }
      case RelOp::kNe: {
        // Numerics and NaN are incomparable with a string: != holds.
        ValueSet s = ValueSet::universe();
        s.excluded_strs.push_back(c.as_string());
        return s;
      }
      default: {
        // Lexicographic range over strings: satisfied only by strings.
        if (!outer) return ValueSet::nothing();
        ValueSet s = ValueSet::nothing();
        s.strings = ValueSet::Strings::kAll;
        return s;
      }
    }
  }
  const double d = *c.numeric();
  if (std::isnan(d)) {
    // NaN constant: incomparable with everything.
    return op == RelOp::kNe ? ValueSet::universe() : ValueSet::nothing();
  }
  if (!compares_as_double(c)) {
    if (!outer) return ValueSet::nothing();
    // Every int the constant may stand for lies within one ulp of d.
    const double down = std::nextafter(d, -kInf);
    const double up = std::nextafter(d, kInf);
    switch (op) {
      case RelOp::kLt:
      case RelOp::kLe: return numeric_only(-kInf, false, up, false);
      case RelOp::kGt:
      case RelOp::kGe: return numeric_only(down, false, kInf, false);
      case RelOp::kEq: return numeric_only(down, false, up, false);
      case RelOp::kNe: return ValueSet::universe();
    }
  }
  switch (op) {
    case RelOp::kLt: return numeric_only(-kInf, false, d, /*hi_open=*/true);
    case RelOp::kLe: return numeric_only(-kInf, false, d, /*hi_open=*/false);
    case RelOp::kGt: return numeric_only(d, /*lo_open=*/true, kInf, false);
    case RelOp::kGe: return numeric_only(d, /*lo_open=*/false, kInf, false);
    case RelOp::kEq: return numeric_only(d, false, d, false);
    case RelOp::kNe: {
      ValueSet s = ValueSet::universe();
      s.excluded_nums.push_back(d);
      return s;
    }
  }
  return ValueSet::universe();
}

/// Values that can satisfy `pub OP f` for SOME bound f in the envelope
/// (over-approximation). A NaN bound (or an unbound variable) satisfies
/// nothing except !=, so an always-NaN envelope admits nothing else.
ValueSet evolving_outer_set(RelOp op, const Interval& iv) {
  if (op != RelOp::kNe && iv.numeric_empty()) return ValueSet::nothing();
  switch (op) {
    case RelOp::kLt: return numeric_only(-kInf, false, iv.hi, /*hi_open=*/true);
    case RelOp::kLe: return numeric_only(-kInf, false, iv.hi, /*hi_open=*/false);
    case RelOp::kGt: return numeric_only(iv.lo, /*lo_open=*/true, kInf, false);
    case RelOp::kGe: return numeric_only(iv.lo, /*lo_open=*/false, kInf, false);
    case RelOp::kEq: return numeric_only(iv.lo, false, iv.hi, false);
    case RelOp::kNe: {
      // Incomparables (strings, NaN publication values, NaN bounds) all
      // satisfy !=; a numeric value fails only against itself, which is
      // certain only when the bound is a provable single point.
      ValueSet s = ValueSet::universe();
      if (iv.is_point()) s.excluded_nums.push_back(iv.lo);
      return s;
    }
  }
  return ValueSet::universe();
}

/// Values GUARANTEED to satisfy `pub OP f` for EVERY bound f in the envelope
/// (under-approximation). A maybe-NaN bound can fail every comparison except
/// !=, so it empties all other operators.
ValueSet evolving_inner_set(RelOp op, const Interval& iv) {
  if (op == RelOp::kNe) {
    if (iv.numeric_empty()) return ValueSet::universe();  // always-NaN bound: != always holds
    ValueSet s = ValueSet::universe();
    if (iv.is_point()) {
      s.excluded_nums.push_back(iv.lo);
    } else {
      // Cannot carve [lo, hi] out of the numeric line: keep only the
      // incomparables, which satisfy != against any bound.
      s.lo = 1.0;
      s.hi = 0.0;
    }
    return s;
  }
  if (iv.maybe_nan) return ValueSet::nothing();
  switch (op) {
    case RelOp::kLt: return numeric_only(-kInf, false, iv.lo, /*hi_open=*/true);
    case RelOp::kLe: return numeric_only(-kInf, false, iv.lo, /*hi_open=*/false);
    case RelOp::kGt: return numeric_only(iv.hi, /*lo_open=*/true, kInf, false);
    case RelOp::kGe: return numeric_only(iv.hi, /*lo_open=*/false, kInf, false);
    case RelOp::kEq:
      return iv.is_point() ? numeric_only(iv.lo, false, iv.lo, false) : ValueSet::nothing();
    case RelOp::kNe: break;  // handled above
  }
  return ValueSet::nothing();
}

void conjoin(SubscriptionShape& shape, AttrId attr, const ValueSet& set) {
  const auto [it, inserted] = shape.attrs.try_emplace(attr, set);
  if (!inserted) it->second.intersect(set);
}

}  // namespace

SubscriptionSummary summarize(const Subscription& sub, const VariableRegistry& registry) {
  SubscriptionSummary out;
  out.preds.reserve(sub.predicates().size());
  const RegistryVarBounds ranges(registry);
  for (const Predicate& pred : sub.predicates()) {
    PredicateFacts f;
    if (!pred.is_evolving()) {
      f.outer = static_pred_set(pred.op(), pred.constant(), /*outer=*/true);
      f.inner = static_pred_set(pred.op(), pred.constant(), /*outer=*/false);
    } else {
      ExprProgram prog = ExprProgram::compile(*pred.fun());
      if (const VerifyResult vr = verify_program(prog); !vr.ok) {
        // Nothing to reason about: the default sets degrade soundly.
        f.malformed = vr.message;
      } else {
        f.interval = eval_interval(prog, ranges);
        f.vars_set = true;
        std::vector<VarId> rel_vars;
        for (const VarId v : prog.variables()) {
          if (v != elapsed_time_var_id() && !registry.get(v).has_value()) f.vars_set = false;
          if (safe_variable(v, registry)) rel_vars.push_back(v);
        }
        f.rel = eval_relational(prog, ranges, rel_vars);
        f.outer = evolving_outer_set(pred.op(), f.interval);
        // The inner set must never fail closed: it needs every variable set.
        if (f.vars_set) f.inner = evolving_inner_set(pred.op(), f.interval);
        f.program = std::move(prog);
      }
    }
    conjoin(out.outer, pred.attr_id(), f.outer);
    conjoin(out.inner, pred.attr_id(), f.inner);
    out.preds.push_back(std::move(f));
  }
  out.rel = relational_shape(sub, out.preds, registry);
  return out;
}

SubscriptionShape static_shape(const std::vector<Predicate>& preds) {
  SubscriptionShape shape;
  for (const Predicate& pred : preds) {
    conjoin(shape, pred.attr_id(),
            pred.is_evolving() ? ValueSet::universe()
                               : static_pred_set(pred.op(), pred.constant(), /*outer=*/true));
  }
  return shape;
}

}  // namespace evps
