// Subscribe-time static analysis of subscriptions.
//
// Combines the ExprProgram verifier (analysis/verifier.hpp) and the interval
// domain (analysis/interval.hpp) into per-subscription verdicts the broker
// acts on before a subscription reaches an engine:
//
//   kMalformed      a compiled predicate program fails verification — never
//                   installable (would hit unchecked stack accesses).
//   kUnsatisfiable  no publication can ever match, for any reachable
//                   evolution-variable values — installing it only burns
//                   matcher cycles on every publication.
//   kAdUncovered    satisfiable in principle, but provably disjoint from
//                   every known advertisement — under advertisement routing
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

#include "analysis/interval.hpp"
#include "analysis/verifier.hpp"
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

/// An evolving bound's interval over the declared ranges and, when the fold
/// rule holds, the one value it always evaluates to.
struct BoundFold {
  Interval interval = Interval::top();
  std::optional<double> value;
};

/// The fold rule, shared by the kConstant verdict and CLEES's never-expiring
/// versions. The bound `fun` of a subscription installed at `epoch` folds iff
/// its interval over the declared ranges (RegistryVarBounds) is one finite
/// value and every variable it reads, other than `t`, is set by `epoch`. A
/// value in effect at the epoch stays in effect forever after, so lazy
/// evaluation never fails closed and always yields that value, bit for bit
/// (interval.hpp's point-exactness contract). Non-finite values stay lazy:
/// they do not round-trip through the codec as static Values.
[[nodiscard]] BoundFold fold_bound(const ExprProgram& fun, const VariableRegistry& registry,
                                   SimTime epoch);

struct PredicateAnalysis {
  bool evolving = false;
  /// Bound-value interval (evolving predicates only; top for static).
  Interval interval = Interval::top();
  /// References the elapsed-time variable `t`.
  bool time_dependent = false;
};

struct SubscriptionAnalysis {
  Verdict verdict = Verdict::kOk;
  /// Human-readable explanation for any non-kOk verdict.
  std::string diagnostic;
  /// Parallel to Subscription::predicates().
  std::vector<PredicateAnalysis> predicates;
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

/// Analyze `sub` against declared variable ranges in `registry`. When `ads`
/// is non-empty, also checks advertisement coverage (pass the broker's known
/// advertisements under advertisement routing; leave empty under flooding).
[[nodiscard]] SubscriptionAnalysis analyze_subscription(
    const Subscription& sub, const VariableRegistry& registry,
    const std::vector<const Advertisement*>& ads = {});

}  // namespace evps
