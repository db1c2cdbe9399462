#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>

namespace evps {

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

std::optional<double> fold_bound(const ExprProgram& fun, const Interval& envelope,
                                 const VariableRegistry& registry, SimTime epoch) {
  if (!envelope.is_point() || !std::isfinite(envelope.lo)) return std::nullopt;
  for (const auto& insn : fun.code()) {
    if (insn.op == ExprProgram::Op::kLoadVar && insn.var != elapsed_time_var_id() &&
        !registry.get_at(insn.var, epoch).has_value()) {
      return std::nullopt;
    }
  }
  return envelope.lo;
}

SubscriptionAnalysis analyze_subscription(const Subscription& sub,
                                          const SubscriptionSummary& summary,
                                          const VariableRegistry& registry,
                                          const std::vector<const SubscriptionShape*>& ads) {
  SubscriptionAnalysis out;
  const auto& preds = sub.predicates();
  bool any_evolving = false;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (!preds[i].is_evolving()) continue;
    any_evolving = true;
    const PredicateFacts& f = summary.preds[i];
    if (!f.malformed.empty()) {
      out.verdict = Verdict::kMalformed;
      out.diagnostic = "predicate '" + preds[i].to_string() + "': " + f.malformed;
      return out;
    }
    out.time_dependent = out.time_dependent ||
                         std::ranges::binary_search(f.program.variables(), elapsed_time_var_id());
  }

  for (const auto& [attr, set] : summary.outer.attrs) {
    if (set.empty()) {
      out.verdict = Verdict::kUnsatisfiable;
      out.diagnostic = "no value of attribute '" + AttributeTable::instance().name(attr) +
                       "' can satisfy all its predicates";
      return out;
    }
  }

  // Cross-attribute infeasibility the per-attribute sets cannot see (the
  // octagon only gains over them when evolving bounds relate attributes
  // through shared variables).
  if (any_evolving && summary.rel.rel_unsat) {
    out.verdict = Verdict::kRelUnsatisfiable;
    out.diagnostic =
        "predicate conjunction is infeasible across attributes for every "
        "reachable variable assignment (octagon domain)";
    return out;
  }

  if (!ads.empty() && std::ranges::none_of(ads, [&](const SubscriptionShape* ad) {
        return overlaps(summary.outer, *ad);
      })) {
    out.verdict = Verdict::kAdUncovered;
    out.diagnostic =
        "provably disjoint from all " + std::to_string(ads.size()) + " known advertisement(s)";
    return out;
  }

  if (!any_evolving) return out;
  const auto fold = [&](std::size_t i) {
    return fold_bound(summary.preds[i].program, summary.preds[i].interval, registry, sub.epoch());
  };
  bool all_fold = true;
  for (std::size_t i = 0; i < preds.size() && all_fold; ++i) {
    all_fold = !preds[i].is_evolving() || fold(i).has_value();
  }
  if (all_fold) {
    Subscription folded(sub.id(), sub.subscriber(), {});
    folded.set_mei(sub.mei()).set_tt(sub.tt()).set_validity(sub.validity()).set_epoch(sub.epoch());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      folded.add(preds[i].is_evolving()
                     ? Predicate(preds[i].attribute(), preds[i].op(), Value{*fold(i)})
                     : preds[i]);
    }
    out.verdict = Verdict::kConstant;
    out.diagnostic = "every evolving bound is provably constant";
    out.folded = std::move(folded);
    return out;
  }

  const int redundant = find_redundant_predicate(sub, summary, registry);
  if (redundant >= 0) {
    out.verdict = Verdict::kRelRedundant;
    out.redundant_predicate = redundant;
    out.diagnostic = "predicate '" + preds[static_cast<std::size_t>(redundant)].to_string() +
                     "' is entailed by the other predicates";
  }
  return out;
}

SubscriptionAnalysis analyze_subscription(const Subscription& sub,
                                          const VariableRegistry& registry,
                                          const std::vector<const Advertisement*>& ads) {
  std::vector<SubscriptionShape> shapes;
  shapes.reserve(ads.size());
  for (const Advertisement* ad : ads) shapes.push_back(static_shape(ad->predicates()));
  std::vector<const SubscriptionShape*> shape_ptrs;
  for (const SubscriptionShape& shape : shapes) shape_ptrs.push_back(&shape);
  return analyze_subscription(sub, summarize(sub, registry), registry, shape_ptrs);
}

}  // namespace evps
