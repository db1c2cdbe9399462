// Relational refinement of the covering / satisfiability analyses.
//
// The per-attribute ValueSet shapes (analysis/covering.hpp) quantify each
// attribute's admissible values independently, so any *correlation* between
// an attribute and the evolution variable its bound tracks — or between two
// attributes whose bounds share a variable — is lost to the Cartesian
// product. A moving AoI `u >= cu - 60; u <= cu + 60` has an *empty* inner
// shape once `cu` ranges over a wide declared interval, even though it
// obviously covers `u >= cu - 30; u <= cu + 30`.
//
// This module recovers those proofs with an octagon abstract domain
// (analysis/octagon.hpp) over constraints `±attr ± var <= c`:
//
//   * A transfer-function pass (eval_relational) walks a compiled
//     ExprProgram and certifies interval bounds on `value - v` / `value + v`
//     for each *safe* variable v (declared ranges are finite and NaN-free;
//     `t` is elapsed time, always a real >= 0). Bounds absorb the
//     evaluator's floating-point rounding by outward error widening, so they
//     hold for the concrete double the evaluator produces.
//   * A subscription's OUTER octagon conjoins, for every attribute its outer
//     ValueSet forces to be numeric, the unary ValueSet bounds and the
//     certified `attr ± v` bounds of its evolving predicates, plus declared
//     variable ranges and t >= 0. Every (publication, assignment) pair that
//     matches the subscription induces a satisfying assignment, so an
//     unsatisfiable closed octagon proves the subscription relationally
//     unsatisfiable.
//   * A subscription's INNER requirements restate each predicate as a
//     disjunction of sufficient octagon conditions (fail-closed: a predicate
//     that could evaluate to NaN or reference an unset variable emits no
//     conditions). `covers_relational` proves A covers B by entailing, for
//     every attribute the per-attribute check could not decide, each of A's
//     requirements on that attribute from B's closed outer octagon.
//
// A purely syntactic shortcut rides along: an A-predicate whose compiled
// t-free program is instruction-identical to a B-predicate's on the same
// attribute is satisfied whenever B matches, provided B's operator implies
// A's (`<` implies `<=` and `!=`; `=` implies `<=` and `>=`). Both sides
// evaluate the same deterministic program under the same broker environment
// at the same instant, so the bounds are bit-identical — this is what keeps
// identical evolving predicates provable where symmetric error widening
// would otherwise lose them. (`t` is excluded: epochs differ between
// subscriptions.)
//
// Soundness contract: covers_relational only strengthens kUnknown to kCovers
// when the inclusion genuinely holds for every publication, variable
// assignment, and instant — tests/test_relational_soundness.cpp and
// fuzz/fuzz_covers.cpp validate this against concrete probe sampling.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/covering.hpp"
#include "analysis/interval.hpp"
#include "analysis/octagon.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"
#include "message/subscription.hpp"

namespace evps {

struct PredicateFacts;       // analysis/summary.hpp
struct SubscriptionSummary;  // analysis/summary.hpp

/// Result of the relational transfer pass over one program: the value
/// envelope plus certified bounds on value - v (diff) and value + v (sum)
/// for the tracked variables. Bounds use *real* arithmetic semantics with
/// outward rounding and hold whenever the concrete evaluation result is
/// numeric (a NaN result is excluded, mirroring Interval's contract).
struct RelBounds {
  Interval value = Interval::unknown();
  std::map<VarId, Interval> diff;
  std::map<VarId, Interval> sum;
};

/// Abstractly interpret `prog` tracking relations against `rel_vars` (must
/// be safe: never NaN under `vars`). The program must pass verify_program.
[[nodiscard]] RelBounds eval_relational(const ExprProgram& prog, const VarBounds& vars,
                                        const std::vector<VarId>& rel_vars);

/// A variable relations may be tracked against: provably a real number
/// under every reachable assignment — `t` (elapsed seconds, >= 0) or a
/// variable with a declared finite range.
[[nodiscard]] bool safe_variable(VarId v, const VariableRegistry& registry);

/// One sufficient octagon condition: attr_sign*attr + var_sign*var <= c
/// (unary when var == kInvalidVarId). Entailed by a coverer candidate's
/// closed outer octagon => the originating predicate is satisfied.
struct RelCondition {
  AttrId attr = 0;
  int attr_sign = 1;
  VarId var = kInvalidVarId;
  int var_sign = 1;
  double c = 0.0;
  bool strict = false;
};

/// Syntactic signature of one evolving predicate (shortcut matching).
struct RelPredSig {
  AttrId attr = 0;
  RelOp op = RelOp::kLt;
  bool t_free = false;
  /// Index into Subscription::predicates() (redundancy analysis excludes a
  /// predicate's own signature when checking it against the others).
  int pred_index = -1;
  std::vector<ExprProgram::Insn> code;
};

/// Everything required of the coveree for ONE side of one coverer
/// predicate: satisfied when any octagon condition is entailed, or when a
/// coveree predicate with an identical t-free program and an implying
/// operator exists, or trivially (e.g. `!= "s"` on a numeric-forced
/// attribute). An empty requirement (no conditions, no shortcut) is
/// unprovable and fails closed.
struct RelRequirement {
  AttrId attr = 0;
  /// Index into Subscription::predicates() this side belongs to.
  int pred_index = -1;
  std::vector<RelCondition> any_of;
  /// Coveree operators that satisfy this side syntactically (empty: no
  /// shortcut). Valid only together with sig_index.
  std::vector<RelOp> shortcut_ops;
  /// Index into the owning RelationalShape::sigs, -1 when not evolving.
  int sig_index = -1;
  /// Holds for any numeric value (the pair check guarantees numeric-forced
  /// attributes before consulting requirements).
  bool trivially_satisfied = false;
};

/// Per-subscription relational summary, built once (octagon pre-closed) and
/// reused across pair checks — the relational analogue of
/// SubscriptionShape. Same monotonicity argument as the ValueSet shapes:
/// declared ranges are fixed, registry histories append-only, envelopes
/// quantify over all t >= 0.
struct RelationalShape {
  /// Inner side (subscription as coverer A).
  std::vector<RelRequirement> requirements;
  /// Signatures of the evolving predicates (shortcut source and target).
  std::vector<RelPredSig> sigs;

  /// Outer side (subscription as coveree B): closed constraint system over
  /// numeric-forced attributes and referenced safe variables.
  Octagon octagon{0};
  std::map<AttrId, std::size_t> attr_node;
  std::map<VarId, std::size_t> var_node;
  /// The outer octagon is unsatisfiable: no publication can match for any
  /// reachable assignment (relationally-unsatisfiable verdict).
  bool rel_unsat = false;
};

/// `sub`'s relational shape, assembled from its per-predicate facts
/// (`facts` parallels sub.predicates(); summarize() builds both).
[[nodiscard]] RelationalShape relational_shape(const Subscription& sub,
                                               const std::vector<PredicateFacts>& facts,
                                               const VariableRegistry& registry);

/// Refinement pass for a pair the per-attribute check left kUnknown: re-walk
/// the per-attribute failures and prove each of A's requirements on those
/// attributes from B's outer octagon. kCovers only when every failure is
/// discharged and B forces the failed attributes numeric.
[[nodiscard]] CoverVerdict covers_relational(const SubscriptionShape& a_inner,
                                             const RelationalShape& a_rel,
                                             const SubscriptionShape& b_outer,
                                             const RelationalShape& b_rel);

/// Index of a predicate provably entailed by the conjunction of the OTHER
/// predicates (relationally-redundant verdict), or -1. Advisory: the
/// subscription behaves identically with the predicate removed. Each
/// candidate is checked against a leave-one-out octagon over the summary's
/// stored facts.
[[nodiscard]] int find_redundant_predicate(const Subscription& sub,
                                           const SubscriptionSummary& summary,
                                           const VariableRegistry& registry);

}  // namespace evps
