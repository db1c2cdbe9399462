// Subscribe-time static analysis of subscriptions.
//
// Reads a subscription's summary (analysis/summary.hpp: the verified
// programs, interval envelopes, ValueSet shapes and octagon built once per
// subscribe) into per-subscription verdicts the broker acts on before a
// subscription reaches an engine:
//
//   kMalformed      a compiled predicate program fails verification — never
//                   installable (would hit unchecked stack accesses).
//   kUnsatisfiable  no publication can ever match, for any reachable
//                   evolution-variable values (some attribute's outer
//                   ValueSet is empty) — installing it only burns matcher
//                   cycles on every publication.
//   kAdUncovered    satisfiable in principle, but its outer shape overlaps
//                   no known advertisement's — under advertisement routing
//                   no covered publication can reach it.
//   kRelUnsatisfiable  satisfiable attribute-by-attribute, but the octagon
//                   domain (analysis/relational.hpp) proves the conjunction
//                   infeasible across attributes/variables (e.g. `x <= v`
//                   with `x >= v + 10`).
//   kConstant       every evolving predicate's bound is a single provable
//                   value — the subscription can be folded to a static one
//                   and skip the lazy-evaluation path entirely.
//   kRelRedundant   some predicate is provably entailed by the others
//                   (advisory: the subscription behaves identically with the
//                   predicate removed; it stays installed as-is).
//   kOk             none of the above.
//
// Verdicts are ordered most-severe-first; analysis returns the most severe
// applicable one. Soundness: kUnsatisfiable/kAdUncovered are only reported
// when *provable* from declared variable ranges (VariableRegistry::
// declare_range) and t >= 0; kConstant folds are bit-identical to what lazy
// evaluation would produce (see interval.hpp's point-exactness contract).
// Undeclared variables degrade to "any value including NaN" and simply make
// verdicts less precise, never wrong.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/summary.hpp"
#include "common/sim_time.hpp"
#include "expr/variable_registry.hpp"
#include "message/advertisement.hpp"
#include "message/subscription.hpp"

namespace evps {

enum class Verdict : std::uint8_t {
  kOk,
  kConstant,
  kAdUncovered,
  kUnsatisfiable,
  kMalformed,
  // Appended (wire/enum stability): relational-domain verdicts.
  kRelUnsatisfiable,
  kRelRedundant,
};

[[nodiscard]] std::string_view to_string(Verdict v) noexcept;

/// Severity order for combining verdicts (kMalformed most severe).
[[nodiscard]] constexpr int severity(Verdict v) noexcept {
  switch (v) {
    case Verdict::kOk: return 0;
    case Verdict::kRelRedundant: return 1;
    case Verdict::kConstant: return 2;
    case Verdict::kAdUncovered: return 3;
    case Verdict::kRelUnsatisfiable: return 4;
    case Verdict::kUnsatisfiable: return 5;
    case Verdict::kMalformed: return 6;
  }
  return 0;
}

/// The fold rule, shared by the kConstant verdict and CLEES's never-expiring
/// versions. The bound `fun` of a subscription installed at `epoch`, whose
/// interval over the declared ranges (RegistryVarBounds) is `envelope`,
/// folds iff that interval is one finite value and every variable `fun`
/// reads, other than `t`, is set by `epoch`. A value in effect at the epoch
/// stays in effect forever after, so lazy evaluation never fails closed and
/// always yields that value, bit for bit (interval.hpp's point-exactness
/// contract); the fold is that value. Non-finite values stay lazy: they do
/// not round-trip through the codec as static Values.
[[nodiscard]] std::optional<double> fold_bound(const ExprProgram& fun, const Interval& envelope,
                                               const VariableRegistry& registry, SimTime epoch);

struct SubscriptionAnalysis {
  Verdict verdict = Verdict::kOk;
  /// Human-readable explanation for any non-kOk verdict.
  std::string diagnostic;
  /// Any evolving predicate references `t` (bounds drift with wall time even
  /// when no discrete variable changes).
  bool time_dependent = false;
  /// Index of the predicate flagged by kRelRedundant, -1 otherwise.
  int redundant_predicate = -1;
  /// Static equivalent, present iff verdict == kConstant: evolving
  /// predicates replaced by their folded values (bit-identical to lazy
  /// evaluation), metadata preserved.
  std::optional<Subscription> folded;
};

/// Judge `sub` from its summary (built by summarize(sub, registry)). When
/// `ads` is non-empty, also checks advertisement coverage against these
/// advertisement shapes (static_shape of each advertisement's predicates:
/// pass the broker's known advertisements under advertisement routing;
/// leave empty under flooding).
[[nodiscard]] SubscriptionAnalysis analyze_subscription(
    const Subscription& sub, const SubscriptionSummary& summary, const VariableRegistry& registry,
    const std::vector<const SubscriptionShape*>& ads);

/// Summarize `sub` against declared variable ranges in `registry` and judge
/// it, with advertisement coverage against `ads` (see above).
[[nodiscard]] SubscriptionAnalysis analyze_subscription(
    const Subscription& sub, const VariableRegistry& registry,
    const std::vector<const Advertisement*>& ads = {});

}  // namespace evps
