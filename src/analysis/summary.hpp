// The subscribe-time summary: one analysis of a subscription that every
// subscribe-time consumer reads.
//
// The analyzer's verdicts (analysis/analyzer.hpp), the covering shapes
// (analysis/covering.hpp) and the relational shape (analysis/relational.hpp)
// all start from the same per-predicate facts. summarize() derives them once:
// each evolving predicate is compiled and verified once, and its envelope
// over the declared ranges and its relational bounds are evaluated once. The
// per-subscription shapes are then assembled from those facts, never from the
// predicates again. A broker summarizes each subscription once per subscribe
// and hands the summary the analyzer judged to its covering index.
//
// A summary reflects the registry at summarize() time. Everything a verdict
// or a kCovers proof relies on is monotone — declared ranges are fixed,
// registry histories are append-only, envelopes quantify over all t >= 0 —
// so a summary never needs refreshing.
#pragma once

#include <string>
#include <vector>

#include "analysis/covering.hpp"
#include "analysis/interval.hpp"
#include "analysis/relational.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"
#include "message/subscription.hpp"

namespace evps {

/// What one predicate contributes to every subscribe-time analysis.
struct PredicateFacts {
  /// The compiled program of an evolving predicate that passed
  /// verify_program; empty for static predicates and malformed programs.
  ExprProgram program;
  /// verify_program's diagnostic for a malformed evolving predicate.
  std::string malformed;
  /// The bound's envelope over the declared ranges (RegistryVarBounds);
  /// top for static predicates.
  Interval interval = Interval::top();
  /// eval_relational over the program's own safe variables: entries exist
  /// only for the variables it loads, so every octagon built from these
  /// facts can use them as they are.
  RelBounds rel;
  /// Every variable the program reads, other than `t`, is set: lazy
  /// evaluation can no longer fail closed (histories are append-only).
  bool vars_set = false;
  /// Values that can satisfy the predicate for SOME reachable assignment
  /// (outer) and for EVERY one (inner); see analysis/covering.hpp.
  ValueSet outer = ValueSet::universe();
  ValueSet inner = ValueSet::nothing();
};

struct SubscriptionSummary {
  std::vector<PredicateFacts> preds;  ///< parallel to Subscription::predicates()
  /// Per-attribute conjunctions of the predicates' outer and inner sets.
  SubscriptionShape outer;
  SubscriptionShape inner;
  /// Closed outer octagon and inner requirements, built from `preds`.
  RelationalShape rel;
};

[[nodiscard]] SubscriptionSummary summarize(const Subscription& sub,
                                            const VariableRegistry& registry);

/// The outer shape of `preds`' static predicates alone: an evolving
/// predicate leaves its attribute unconstrained. Advertisements promise this
/// shape, and routing matches a subscription's against it (overlaps).
[[nodiscard]] SubscriptionShape static_shape(const std::vector<Predicate>& preds);

}  // namespace evps
