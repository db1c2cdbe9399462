// Cross-subscription covering analysis over evolution envelopes.
//
// A subscription A *covers* a subscription B when every publication that
// matches B also matches A — for every reachable evolution-variable
// assignment (declared ranges, t >= 0) and at every future evaluation
// instant. Covering is what makes subscription aggregation sound: a broker
// that has already forwarded A upstream gains nothing from forwarding B in
// the same direction, because any publication routed towards B's region is
// already routed towards A's.
//
// The analysis is *relational*: instead of judging one subscription in
// isolation (analysis/analyzer.hpp), it compares the publication sets of two
// subscriptions. Each subscription is summarised per attribute as a
// ValueSet — the set of publication values admitted on that attribute — in
// two dual flavours, both built by the subscribe-time summary
// (analysis/summary.hpp) from each predicate's interval envelope:
//
//   * outer shape  — an OVER-approximation: every value some reachable
//     variable assignment lets the predicate conjunction accept is in the
//     set. Evolving bounds contribute their full interval envelope
//     (eval_interval, outward 1-ulp rounding).
//   * inner shape  — an UNDER-approximation: every value in the set is
//     accepted for ALL reachable assignments. Evolving bounds contribute
//     only the side of their envelope that is guaranteed (e.g. x < f is
//     guaranteed only for x below the envelope minimum).
//
// A covers B is then decided structurally: every attribute A constrains must
// also be constrained by B (a predicate requires attribute presence), and on
// each such attribute outer(B) ⊆ inner(A). Anything the ValueSet domain
// cannot express exactly degrades in the sound direction — inner shrinks,
// outer grows — so the only verdicts are kCovers (proved) and kUnknown
// (not proved; includes genuine non-covering). Soundness contract: a
// kCovers verdict can never be violated by any publication/assignment;
// tests/test_covering_soundness.cpp validates this against brute-force
// sampling.
//
// The coverer's evolving predicates additionally fail closed on unbound
// variables, so a kCovers verdict requires every variable referenced by A
// (other than `t`) to be set in the registry at analysis time — registry
// histories are append-only, so a variable set once resolves at every later
// evaluation instant.
//
// The same domain answers the advertisement question (overlaps): can one
// publication value satisfy two shapes at once? The analyzer asks it of a
// subscription's outer shape, routing of its static predicates alone.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "expr/variable_registry.hpp"
#include "message/subscription.hpp"

namespace evps {

/// Three-valued-in-spirit, two-valued-in-practice verdict: covering is
/// either proved or not claimed. (Proving *non*-covering would need its own
/// soundness argument; routing only ever acts on proved covering.)
enum class CoverVerdict : std::uint8_t { kCovers, kUnknown };

[[nodiscard]] std::string_view to_string(CoverVerdict v) noexcept;

/// The one exact-int guard of the ValueSet and octagon domains: does
/// reasoning over the double a numeric constant converts to reproduce
/// Value::compare? Doubles always do. An int does only below 2^53 in
/// magnitude: from 2^53 on, distinct int64s round to one double (2^53 + 1
/// rounds to 2^53), and int/int comparisons are exact, so a publication's
/// int and the constant can compare differently than their doubles.
[[nodiscard]] bool compares_as_double(const Value& c) noexcept;

/// The set of publication Values admitted on one attribute, in the
/// content-based comparison model: numeric values (int and double compared
/// in double space; constants failing compares_as_double widen or empty
/// their set), the incomparable NaN, and strings. Supports exactly the
/// shapes predicate conjunctions produce: one numeric interval with open/
/// closed endpoints, finitely many excluded numeric points (from !=), and
/// none/one/all strings with finitely many exclusions.
struct ValueSet {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  /// A NaN publication value is admitted (incomparable: only != accepts it).
  bool nan = true;
  enum class Strings : std::uint8_t { kNone, kAll, kOne };
  Strings strings = Strings::kAll;
  std::string str;  // the single admitted string when strings == kOne
  /// Numeric points carved out of [lo, hi] (x != c). Unsorted, tiny.
  std::vector<double> excluded_nums;
  /// Strings carved out of kAll (x != 's').
  std::vector<std::string> excluded_strs;

  [[nodiscard]] static ValueSet universe() { return ValueSet{}; }
  [[nodiscard]] static ValueSet nothing() {
    ValueSet s;
    s.lo = 1.0;
    s.hi = 0.0;
    s.nan = false;
    s.strings = Strings::kNone;
    return s;
  }

  [[nodiscard]] bool numeric_empty() const noexcept {
    return lo > hi || (lo == hi && (lo_open || hi_open));
  }
  /// Admits no publication value at all.
  [[nodiscard]] bool empty() const noexcept {
    return numeric_empty() && !nan && strings == Strings::kNone;
  }
  /// Membership of a (non-NaN) numeric value, exclusions included.
  [[nodiscard]] bool admits_num(double v) const noexcept;
  [[nodiscard]] bool admits_string(const std::string& s) const;

  /// Set intersection (exact on this domain, up to redundant exclusions).
  void intersect(const ValueSet& other);
};

/// Is `outer` a subset of `inner`? Exact on the ValueSet domain; used with
/// an over-approximated outer and an under-approximated inner this implies
/// true set inclusion.
[[nodiscard]] bool subset_of(const ValueSet& outer, const ValueSet& inner);

/// Per-attribute ValueSet summary of a subscription's predicate conjunction.
/// Attributes without predicates are absent (any value, presence optional).
struct SubscriptionShape {
  std::map<AttrId, ValueSet> attrs;
};

/// Can one publication satisfy both shapes? False only when some attribute
/// both constrain admits no common value (up to the domain's inexact
/// exclusions, which count as overlap): never a false negative.
[[nodiscard]] bool overlaps(const SubscriptionShape& a, const SubscriptionShape& b);

/// Decide covering from precomputed shapes (the CoveringIndex path: shapes
/// are built once per subscription and reused across pair checks).
/// `a_inner` is A's summary inner shape, `b_outer` B's outer shape.
[[nodiscard]] CoverVerdict covers(const SubscriptionShape& a_inner,
                                  const SubscriptionShape& b_outer);

/// Convenience: does `a` cover `b` under `registry`'s declared ranges and
/// currently-set variables? Summarizes both, runs the per-attribute check
/// and, when `relational` is true (the default — the auditor's re-proofs
/// must be at least as strong as the index's), refines kUnknown through the
/// octagon domain (analysis/relational.hpp).
[[nodiscard]] CoverVerdict covers(const Subscription& a, const Subscription& b,
                                  const VariableRegistry& registry, bool relational = true);

/// Counters for the pair analysis (surfaced per broker via
/// metrics/covering_counters.hpp).
struct CoverStats {
  std::uint64_t pairs = 0;       ///< covering queries answered
  std::uint64_t covered = 0;     ///< kCovers verdicts
  std::uint64_t relational = 0;  ///< kCovers proved only by the octagon refinement
  std::uint64_t unknown = 0;     ///< kUnknown verdicts

  void reset() noexcept { *this = CoverStats{}; }
};

}  // namespace evps
