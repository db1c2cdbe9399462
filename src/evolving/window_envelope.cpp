#include "evolving/window_envelope.hpp"

#include <limits>

#include "analysis/verifier.hpp"

namespace evps {
namespace {

constexpr std::int64_t kMaxUs = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMinUs = std::numeric_limits<std::int64_t>::min();

/// a + b in microseconds, clamped to the int64 range.
std::int64_t saturating_add_us(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b > 0 ? kMaxUs : kMinUs;
}

/// Microseconds from `from` to `to`, clamped to the int64 range.
std::int64_t elapsed_us(SimTime from, SimTime to) noexcept {
  std::int64_t diff = 0;
  if (!__builtin_sub_overflow(to.micros(), from.micros(), &diff)) return diff;
  return from.micros() < 0 ? kMaxUs : kMinUs;
}

/// True iff some predicate loads `t` (time) or a discrete variable (!time).
bool reads_var(const std::vector<CompiledPredicate>& preds, bool time) {
  const VarId t = elapsed_time_var_id();
  for (const auto& cp : preds) {
    for (const auto& insn : cp.program().code()) {
      if (insn.op == ExprProgram::Op::kLoadVar && (insn.var == t) == time) return true;
    }
  }
  return false;
}

}  // namespace

SimTime saturating_add(SimTime t, Duration d) noexcept {
  return SimTime::from_micros(saturating_add_us(t.micros(), d.count_micros()));
}

WindowEnvelope::WindowEnvelope(const VariableRegistry& registry, SimTime now, SimTime epoch,
                               Duration span) noexcept
    : registry_(registry), now_(now) {
  const std::int64_t elapsed = elapsed_us(epoch, now);
  const Duration lo = Duration::micros(elapsed);
  const Duration hi = Duration::micros(saturating_add_us(elapsed, span.count_micros()));
  t_ = Interval::range(lo.count_seconds(), hi.count_seconds());
}

Interval WindowEnvelope::bounds(VarId var) const {
  if (var == elapsed_time_var_id()) return t_;
  // The current value holds until the variable's next change, which makes
  // the owner re-envelope. A change already recorded for later than `now`
  // would not, so such a variable takes its declared range instead.
  const auto changed = registry_.last_change(var);
  if (changed.has_value() && *changed <= now_) return Interval::point(*registry_.get(var));
  if (const auto range = registry_.declared_range(var)) {
    return Interval::range(range->first, range->second);
  }
  return Interval::unknown();
}

bool WindowEnvelope::widen(const Predicate& pred, const ExprProgram& fun,
                           std::vector<Predicate>& out) const {
  const RelOp op = pred.op();
  if (op == RelOp::kNe) return true;
  const Interval envelope = eval_interval(fun, *this);
  if (envelope.numeric_empty()) return false;
  const std::string& attr = pred.attribute();
  switch (op) {
    case RelOp::kLt:
    case RelOp::kLe: out.emplace_back(attr, op, Value{envelope.hi}); break;
    case RelOp::kGt:
    case RelOp::kGe: out.emplace_back(attr, op, Value{envelope.lo}); break;
    case RelOp::kEq:
      out.emplace_back(attr, RelOp::kGe, Value{envelope.lo});
      out.emplace_back(attr, RelOp::kLe, Value{envelope.hi});
      break;
    case RelOp::kNe: break;
  }
  return true;
}

Duration filter_window(const Subscription& sub, SimTime now, Duration mei) noexcept {
  const Duration validity = sub.validity();
  const Duration elapsed = Duration::micros(elapsed_us(sub.epoch(), now));
  if (validity > Duration::zero() && elapsed >= Duration::zero() && elapsed < validity) {
    return validity - elapsed;
  }
  return mei;
}

std::vector<CompiledPredicate> compile_evolving(const Subscription& sub) {
  std::vector<CompiledPredicate> preds;
  for (const auto& p : sub.predicates()) {
    if (!p.is_evolving()) continue;
    preds.emplace_back(p);
    verify_or_throw(preds.back().program());
  }
  return preds;
}

std::uint64_t discrete_versions(const std::vector<CompiledPredicate>& preds,
                                const VariableRegistry& registry) {
  const VarId t = elapsed_time_var_id();
  std::uint64_t sum = 0;
  for (const auto& cp : preds) {
    for (const auto& insn : cp.program().code()) {
      if (insn.op == ExprProgram::Op::kLoadVar && insn.var != t) sum += registry.version(insn.var);
    }
  }
  return sum;
}

bool reads_discrete(const std::vector<CompiledPredicate>& preds) {
  return reads_var(preds, /*time=*/false);
}

bool reads_time(const std::vector<CompiledPredicate>& preds) {
  return reads_var(preds, /*time=*/true);
}

}  // namespace evps
