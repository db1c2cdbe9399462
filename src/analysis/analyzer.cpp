#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "analysis/relational.hpp"

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Over-approximation of the set of publication Values that can satisfy the
/// conjunction of all predicates on one attribute, choosing each evolving
/// predicate's *loosest* bound independently. A superset of the true
/// satisfying set, so an empty set proves unsatisfiability; mirrors the
/// AttrConstraint logic Advertisement::intersects uses for forwarding.
struct AttrSat {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
  bool has_eq_string = false;
  std::string eq_string;
  /// Some predicate can only be satisfied by a numeric value (numeric or
  /// NaN bound with any operator except !=: strings are incomparable).
  bool numeric_required = false;
  /// Some predicate can only be satisfied by a string value.
  bool string_required = false;
  bool never = false;

  void tighten_lo(double v, bool open) noexcept {
    if (v > lo || (v == lo && open && !lo_open)) {
      lo = v;
      lo_open = open;
    }
  }
  void tighten_hi(double v, bool open) noexcept {
    if (v < hi || (v == hi && open && !hi_open)) {
      hi = v;
      hi_open = open;
    }
  }
  [[nodiscard]] bool range_feasible() const noexcept {
    if (lo < hi) return true;
    return lo == hi && !lo_open && !hi_open;
  }
  void require_string(const std::string* eq) {
    string_required = true;
    if (eq != nullptr) {
      if (has_eq_string && eq_string != *eq) {
        never = true;
      } else {
        has_eq_string = true;
        eq_string = *eq;
      }
    }
  }
  /// No Value satisfies the conjunction.
  [[nodiscard]] bool empty() const noexcept {
    return never || (string_required && numeric_required) ||
           (numeric_required && !range_feasible());
  }
};

/// Fold `pred`'s loosest satisfying set (bound anywhere in `bound_interval`)
/// into `sat`. For static predicates pass the exact point/string constant.
void apply_numeric_bound(AttrSat& sat, RelOp op, const Interval& bound_interval) {
  if (op == RelOp::kNe) {
    // x != b excludes at most one value per bound — over-approximate as
    // unconstrained. A definitely-NaN bound even matches strings.
    return;
  }
  // All other operators are false for string publication values (string vs
  // numeric/NaN is incomparable).
  sat.numeric_required = true;
  if (bound_interval.numeric_empty()) {
    // Bound is always NaN: incomparable with every numeric value too.
    sat.never = true;
    return;
  }
  switch (op) {
    case RelOp::kLt: sat.tighten_hi(bound_interval.hi, /*open=*/true); break;
    case RelOp::kLe: sat.tighten_hi(bound_interval.hi, /*open=*/false); break;
    case RelOp::kGt: sat.tighten_lo(bound_interval.lo, /*open=*/true); break;
    case RelOp::kGe: sat.tighten_lo(bound_interval.lo, /*open=*/false); break;
    case RelOp::kEq:
      sat.tighten_lo(bound_interval.lo, /*open=*/false);
      sat.tighten_hi(bound_interval.hi, /*open=*/false);
      break;
    case RelOp::kNe: break;  // handled above
  }
}

void apply_static(AttrSat& sat, const Predicate& pred) {
  const Value& c = pred.constant();
  if (c.is_string()) {
    if (pred.op() == RelOp::kNe) return;  // matches all numerics and almost all strings
    // Lexicographic operators constrain strings only; track just the type
    // (and the exact string for equality).
    sat.require_string(pred.op() == RelOp::kEq ? &c.as_string() : nullptr);
    return;
  }
  apply_numeric_bound(sat, pred.op(), Interval::point(*c.numeric()));
}

/// Can a single publication Value satisfy both conjunctions? (Used for
/// advertisement coverage: `a` from the subscription, `b` from an ad.)
bool disjoint(const AttrSat& a, const AttrSat& b) noexcept {
  if (a.never || b.never) return true;
  bool strings_possible = !a.numeric_required && !b.numeric_required &&
                          !(a.has_eq_string && b.has_eq_string && a.eq_string != b.eq_string);
  bool numerics_possible = !a.string_required && !b.string_required;
  if (numerics_possible) {
    AttrSat merged = a;
    merged.tighten_lo(b.lo, b.lo_open);
    merged.tighten_hi(b.hi, b.hi_open);
    numerics_possible = merged.range_feasible();
  }
  return !strings_possible && !numerics_possible;
}

/// Attribute constraints an advertisement imposes (evolving ad predicates
/// are unconstrained, mirroring Advertisement::intersects).
std::map<AttrId, AttrSat> ad_constraints(const Advertisement& ad) {
  std::map<AttrId, AttrSat> out;
  for (const Predicate& pred : ad.predicates()) {
    if (pred.is_evolving()) continue;
    apply_static(out[pred.attr_id()], pred);
  }
  return out;
}

}  // namespace

std::string_view to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kConstant: return "constant";
    case Verdict::kAdUncovered: return "ad-uncovered";
    case Verdict::kUnsatisfiable: return "unsatisfiable";
    case Verdict::kMalformed: return "malformed";
    case Verdict::kRelUnsatisfiable: return "relationally-unsatisfiable";
    case Verdict::kRelRedundant: return "relationally-redundant";
  }
  return "?";
}

Interval RegistryVarBounds::bounds(VarId var) const {
  if (var == elapsed_time_var_id()) return Interval::range(0.0, kInf);
  if (const auto range = registry_->declared_range(var)) {
    return Interval::range(range->first, range->second);
  }
  return Interval::unknown();
}

BoundFold fold_bound(const ExprProgram& fun, const VariableRegistry& registry, SimTime epoch) {
  BoundFold fold;
  fold.interval = eval_interval(fun, RegistryVarBounds(registry));
  if (!fold.interval.is_point() || !std::isfinite(fold.interval.lo)) return fold;
  for (const auto& insn : fun.code()) {
    if (insn.op == ExprProgram::Op::kLoadVar && insn.var != elapsed_time_var_id() &&
        !registry.get_at(insn.var, epoch).has_value()) {
      return fold;
    }
  }
  fold.value = fold.interval.lo;
  return fold;
}

SubscriptionAnalysis analyze_subscription(const Subscription& sub,
                                          const VariableRegistry& registry,
                                          const std::vector<const Advertisement*>& ads) {
  SubscriptionAnalysis out;
  out.predicates.reserve(sub.predicates().size());

  std::map<AttrId, AttrSat> sat;
  bool any_evolving = false;
  bool all_fold = true;  // every evolving bound passes fold_bound

  for (const Predicate& pred : sub.predicates()) {
    PredicateAnalysis pa;
    pa.evolving = pred.is_evolving();
    if (!pa.evolving) {
      apply_static(sat[pred.attr_id()], pred);
      out.predicates.push_back(pa);
      continue;
    }
    any_evolving = true;
    const ExprProgram prog = ExprProgram::compile(*pred.fun());
    if (const VerifyResult vr = verify_program(prog); !vr.ok) {
      out.verdict = Verdict::kMalformed;
      out.diagnostic = "predicate '" + pred.to_string() + "': " + vr.message;
      out.predicates.push_back(pa);
      return out;
    }
    const BoundFold fold = fold_bound(prog, registry, sub.epoch());
    pa.interval = fold.interval;
    all_fold = all_fold && fold.value.has_value();
    pa.time_dependent = std::ranges::binary_search(prog.variables(), elapsed_time_var_id());
    out.time_dependent = out.time_dependent || pa.time_dependent;
    apply_numeric_bound(sat[pred.attr_id()], pred.op(), pa.interval);
    out.predicates.push_back(pa);
  }

  for (const auto& [attr, attr_sat] : sat) {
    if (attr_sat.empty()) {
      out.verdict = Verdict::kUnsatisfiable;
      out.diagnostic = "no value of attribute '" + AttributeTable::instance().name(attr) +
                       "' can satisfy all its predicates";
      return out;
    }
  }

  // Cross-attribute infeasibility the per-attribute sets cannot see (the
  // octagon only gains over them when evolving bounds relate attributes
  // through shared variables, so skip the work for static subscriptions).
  if (any_evolving && relational_shape(sub, registry).rel_unsat) {
    out.verdict = Verdict::kRelUnsatisfiable;
    out.diagnostic =
        "predicate conjunction is infeasible across attributes for every "
        "reachable variable assignment (octagon domain)";
    return out;
  }

  if (!ads.empty()) {
    bool covered = false;
    for (const Advertisement* ad : ads) {
      const auto ad_sat = ad_constraints(*ad);
      bool overlap = true;
      for (const auto& [attr, constraint] : ad_sat) {
        const auto it = sat.find(attr);
        if (it != sat.end() && disjoint(it->second, constraint)) {
          overlap = false;
          break;
        }
      }
      if (overlap) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      out.verdict = Verdict::kAdUncovered;
      out.diagnostic = "provably disjoint from all " + std::to_string(ads.size()) +
                       " known advertisement(s)";
      return out;
    }
  }

  if (any_evolving && all_fold) {
    Subscription folded(sub.id(), sub.subscriber(), {});
    folded.set_mei(sub.mei()).set_tt(sub.tt()).set_validity(sub.validity()).set_epoch(sub.epoch());
    for (std::size_t i = 0; i < sub.predicates().size(); ++i) {
      const Predicate& pred = sub.predicates()[i];
      // A folded bound's value is its interval's single point.
      folded.add(pred.is_evolving()
                     ? Predicate(pred.attribute(), pred.op(), Value{out.predicates[i].interval.lo})
                     : pred);
    }
    out.verdict = Verdict::kConstant;
    out.diagnostic = "every evolving bound is provably constant";
    out.folded = std::move(folded);
  }

  if (out.verdict == Verdict::kOk && any_evolving) {
    const int redundant = find_redundant_predicate(sub, registry);
    if (redundant >= 0) {
      out.verdict = Verdict::kRelRedundant;
      out.redundant_predicate = redundant;
      out.diagnostic =
          "predicate '" + sub.predicates()[static_cast<std::size_t>(redundant)].to_string() +
          "' is entailed by the other predicates";
    }
  }
  return out;
}

}  // namespace evps
