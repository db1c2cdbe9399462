// Window envelopes: the one widening rule VES broker-hop versions and the
// LEES candidate filter share (DESIGN.md §9.2), plus the compiled part every
// engine starts from and the facts derived from it (reads `t`, reads a
// discrete variable, the discrete-version stamp).
//
// Over a window [now, end] of a subscription's life, `t` spans
// [now − epoch, end − epoch] and every other variable is bounded by its
// current value (discrete variables are piecewise-constant, and a change
// re-envelopes), else its declared range, else it is unknown. eval_interval
// then bounds a predicate function over the whole window: by the interval
// domain's soundness contract, every bound exact evaluation can produce
// inside the window is NaN or lies in the envelope [lo, hi]. Widening turns
// that into static predicates every in-window match also satisfies:
//
//   attr <  f, attr <= f   ->  attr <  hi, attr <= hi
//   attr >  f, attr >= f   ->  attr >  lo, attr >= lo
//   attr =  f              ->  attr >= lo and attr <= hi
//   attr != f              ->  no bound (NaN and all but one value match)
//
// An always-NaN envelope means the predicate (unless `!=`) cannot match
// anywhere in the window.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/interval.hpp"
#include "common/sim_time.hpp"
#include "expr/program.hpp"
#include "expr/variable_registry.hpp"
#include "message/predicate.hpp"
#include "message/subscription.hpp"

namespace evps {

class WindowEnvelope final : public VarBounds {
 public:
  /// The window [now, now + span] of a subscription installed at `epoch`.
  /// Time arithmetic saturates, so hostile epochs or spans cannot overflow.
  WindowEnvelope(const VariableRegistry& registry, SimTime now, SimTime epoch,
                 Duration span) noexcept;

  [[nodiscard]] Interval bounds(VarId var) const override;

  /// Append to `out` the static predicates on `pred`'s attribute that hold
  /// whenever `pred` (with compiled function `fun`) matches inside the
  /// window, by the table above. Returns false when the predicate cannot
  /// match anywhere in the window (an always-NaN envelope); `out` is then
  /// unchanged.
  bool widen(const Predicate& pred, const ExprProgram& fun, std::vector<Predicate>& out) const;

 private:
  const VariableRegistry& registry_;
  SimTime now_;
  Interval t_;
};

/// `t + d` clamped to the representable SimTime range.
[[nodiscard]] SimTime saturating_add(SimTime t, Duration d) noexcept;

/// Length of the LEES filter window that opens at `now`: the rest of the
/// subscription's declared validity while it lasts (the subscriber replaces
/// the subscription then, so one envelope covers its whole life), else one
/// MEI. Elapsed time is compared with the validity; epoch + validity is never
/// formed, so huge values cannot overflow.
[[nodiscard]] Duration filter_window(const Subscription& sub, SimTime now, Duration mei) noexcept;

/// The compiled part of an evolving subscription: its evolving predicates, in
/// order, each compiled and verified. Every engine evaluates these programs
/// without bounds checks, so a malformed one throws VerifyError here, before
/// the caller changes any state.
[[nodiscard]] std::vector<CompiledPredicate> compile_evolving(const Subscription& sub);

/// Sum of the registry versions of every discrete variable `preds` read
/// (`t` excluded). Versions only grow, so the sum changes iff one of those
/// variables changed.
[[nodiscard]] std::uint64_t discrete_versions(const std::vector<CompiledPredicate>& preds,
                                              const VariableRegistry& registry);

/// True iff some predicate reads a discrete variable (anything but `t`).
[[nodiscard]] bool reads_discrete(const std::vector<CompiledPredicate>& preds);

/// True iff some predicate reads the continuous variable `t`.
[[nodiscard]] bool reads_time(const std::vector<CompiledPredicate>& preds);

}  // namespace evps
