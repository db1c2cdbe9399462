#include "analysis/relational.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "analysis/summary.hpp"
#include "common/variable_table.hpp"

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Real-arithmetic interval helpers.
//
// The iv_* transfer functions in analysis/interval.hpp model the EVALUATOR's
// computed double (including its rounding), which is what envelopes need.
// Relational bounds instead constrain REAL sums/differences of quantities
// ("value - v"), so they need real interval arithmetic: exact results pass
// through, inexact ones round outward — including on degenerate operands.
// ---------------------------------------------------------------------------

double sum_up(double a, double b) noexcept {
  if (a == kInf || b == kInf) return kInf;
  if (a == -kInf || b == -kInf) return -kInf;
  const double s = a + b;
  if (s - a == b && s - b == a) return s;
  return std::nextafter(s, kInf);
}

double sum_down(double a, double b) noexcept {
  if (a == -kInf || b == -kInf) return -kInf;
  if (a == kInf || b == kInf) return kInf;
  const double s = a + b;
  if (s - a == b && s - b == a) return s;
  return std::nextafter(s, -kInf);
}

Interval r_add(const Interval& a, const Interval& b) noexcept {
  return Interval::range(sum_down(a.lo, b.lo), sum_up(a.hi, b.hi));
}

Interval r_sub(const Interval& a, const Interval& b) noexcept {
  return Interval::range(sum_down(a.lo, -b.hi), sum_up(a.hi, -b.lo));
}

Interval r_neg(const Interval& a) noexcept { return Interval::range(-a.hi, -a.lo); }

Interval r_meet(const Interval& a, const Interval& b) noexcept {
  return Interval::range(std::max(a.lo, b.lo), std::min(a.hi, b.hi));
}

/// Absorb the final-operation rounding of the evaluator into a relational
/// bound: the concrete result is fl(x) for the real x the bound constrains,
/// and |fl(x) - x| <= ulp(m) where m bounds |fl(x)| (from the result
/// envelope). Returns false (drop the bound) when the result magnitude is
/// unbounded. A numeric-empty envelope means the result is never numeric, so
/// the (vacuous) bound passes through untouched.
bool widen_err(Interval& d, const Interval& result_env) noexcept {
  if (result_env.numeric_empty()) return true;
  const double m = std::max(std::fabs(result_env.lo), std::fabs(result_env.hi));
  if (!std::isfinite(m)) return false;
  const double err = std::nextafter(m, kInf) - m;
  d.lo = sum_down(d.lo, -err);
  d.hi = sum_up(d.hi, err);
  return true;
}

// ---------------------------------------------------------------------------
// Transfer pass.
// ---------------------------------------------------------------------------

struct Slot {
  Interval iv = Interval::unknown();
  std::map<VarId, Interval> diff;  // value - v (valid when value numeric)
  std::map<VarId, Interval> sum;   // value + v
};

template <typename Fn>
void for_union_keys(const std::map<VarId, Interval>& a, const std::map<VarId, Interval>& b,
                    Fn&& fn) {
  for (const auto& [v, iv] : a) {
    (void)iv;
    fn(v);
  }
  for (const auto& [v, iv] : b) {
    (void)iv;
    if (a.find(v) == a.end()) fn(v);
  }
}

Slot combine_add(const Slot& l, const Slot& r) {
  Slot out;
  out.iv = iv_add(l.iv, r.iv);
  for_union_keys(l.diff, r.diff, [&](VarId v) {
    std::optional<Interval> cand;
    if (const auto it = l.diff.find(v); it != l.diff.end()) cand = r_add(it->second, r.iv);
    if (const auto it = r.diff.find(v); it != r.diff.end()) {
      const Interval c2 = r_add(l.iv, it->second);
      cand = cand ? r_meet(*cand, c2) : c2;
    }
    if (cand && widen_err(*cand, out.iv)) out.diff.emplace(v, *cand);
  });
  for_union_keys(l.sum, r.sum, [&](VarId v) {
    std::optional<Interval> cand;
    if (const auto it = l.sum.find(v); it != l.sum.end()) cand = r_add(it->second, r.iv);
    if (const auto it = r.sum.find(v); it != r.sum.end()) {
      const Interval c2 = r_add(l.iv, it->second);
      cand = cand ? r_meet(*cand, c2) : c2;
    }
    if (cand && widen_err(*cand, out.iv)) out.sum.emplace(v, *cand);
  });
  return out;
}

Slot combine_sub(const Slot& l, const Slot& r) {
  Slot out;
  out.iv = iv_sub(l.iv, r.iv);
  // (l - r) - v = (l - v) - r = l - (r + v)
  for_union_keys(l.diff, r.sum, [&](VarId v) {
    std::optional<Interval> cand;
    if (const auto it = l.diff.find(v); it != l.diff.end()) cand = r_sub(it->second, r.iv);
    if (const auto it = r.sum.find(v); it != r.sum.end()) {
      const Interval c2 = r_sub(l.iv, it->second);
      cand = cand ? r_meet(*cand, c2) : c2;
    }
    if (cand && widen_err(*cand, out.iv)) out.diff.emplace(v, *cand);
  });
  // (l - r) + v = (l + v) - r = l - (r - v)
  for_union_keys(l.sum, r.diff, [&](VarId v) {
    std::optional<Interval> cand;
    if (const auto it = l.sum.find(v); it != l.sum.end()) cand = r_sub(it->second, r.iv);
    if (const auto it = r.diff.find(v); it != r.diff.end()) {
      const Interval c2 = r_sub(l.iv, it->second);
      cand = cand ? r_meet(*cand, c2) : c2;
    }
    if (cand && widen_err(*cand, out.iv)) out.sum.emplace(v, *cand);
  });
  return out;
}

/// min/max distribute exactly over "- v" / "+ v" (monotone shifts) and the
/// fold is a pure selection (no rounding), so relations survive — but only
/// when no operand can be NaN (the evaluator's asymmetric NaN skipping
/// breaks the pure-min/max reading). A partner without a stored relation
/// contributes one derived from its envelope and the variable's range.
Slot combine_minmax(const Slot& l, const Slot& r, bool is_min, bool clean,
                    const std::map<VarId, Interval>& var_iv) {
  Slot out;
  out.iv = is_min ? iv_min2(l.iv, r.iv) : iv_max2(l.iv, r.iv);
  if (!clean) return out;
  const auto pick_lo = [is_min](double a, double b) { return is_min ? std::min(a, b) : std::max(a, b); };
  for_union_keys(l.diff, r.diff, [&](VarId v) {
    const Interval& vb = var_iv.at(v);
    const auto li = l.diff.find(v);
    const auto ri = r.diff.find(v);
    const Interval dl = li != l.diff.end() ? li->second : r_sub(l.iv, vb);
    const Interval dr = ri != r.diff.end() ? ri->second : r_sub(r.iv, vb);
    out.diff.emplace(v, Interval::range(pick_lo(dl.lo, dr.lo), pick_lo(dl.hi, dr.hi)));
  });
  for_union_keys(l.sum, r.sum, [&](VarId v) {
    const Interval& vb = var_iv.at(v);
    const auto li = l.sum.find(v);
    const auto ri = r.sum.find(v);
    const Interval dl = li != l.sum.end() ? li->second : r_add(l.iv, vb);
    const Interval dr = ri != r.sum.end() ? ri->second : r_add(r.iv, vb);
    out.sum.emplace(v, Interval::range(pick_lo(dl.lo, dr.lo), pick_lo(dl.hi, dr.hi)));
  });
  return out;
}

[[nodiscard]] bool slot_clean(const Slot& s) noexcept {
  return !s.iv.maybe_nan && !s.iv.numeric_empty();
}

}  // namespace

RelBounds eval_relational(const ExprProgram& prog, const VarBounds& vars,
                          const std::vector<VarId>& rel_vars) {
  using Op = ExprProgram::Op;
  if (prog.empty()) throw std::logic_error("relational eval of an empty ExprProgram");
  std::map<VarId, Interval> var_iv;
  for (const VarId v : rel_vars) var_iv.emplace(v, vars.bounds(v));

  std::vector<Slot> stack;
  const auto need = [&stack](std::size_t n) {
    if (stack.size() < n) throw std::logic_error("relational eval of a malformed ExprProgram");
  };
  for (const ExprProgram::Insn& insn : prog.code()) {
    switch (insn.op) {
      case Op::kPushConst: {
        Slot s;
        s.iv = Interval::point(insn.k);
        stack.push_back(std::move(s));
        break;
      }
      case Op::kLoadVar: {
        Slot s;
        s.iv = vars.bounds(insn.var);
        if (const auto it = var_iv.find(insn.var); it != var_iv.end()) {
          s.diff.emplace(insn.var, Interval::range(0.0, 0.0));
          s.sum.emplace(insn.var, r_add(s.iv, s.iv));
        }
        stack.push_back(std::move(s));
        break;
      }
      case Op::kNeg: {
        need(1);
        Slot& s = stack.back();
        s.iv = iv_neg(s.iv);
        std::map<VarId, Interval> nd;
        std::map<VarId, Interval> ns;
        for (const auto& [v, d] : s.sum) nd.emplace(v, r_neg(d));
        for (const auto& [v, d] : s.diff) ns.emplace(v, r_neg(d));
        s.diff = std::move(nd);
        s.sum = std::move(ns);
        break;
      }
      case Op::kAbs:
      case Op::kFloor:
      case Op::kCeil:
      case Op::kSqrt:
      case Op::kSin:
      case Op::kCos:
      case Op::kSign:
      case Op::kStep: {
        need(1);
        Slot& s = stack.back();
        switch (insn.op) {
          case Op::kAbs: s.iv = iv_abs(s.iv); break;
          case Op::kFloor: s.iv = iv_floor(s.iv); break;
          case Op::kCeil: s.iv = iv_ceil(s.iv); break;
          case Op::kSqrt: s.iv = iv_sqrt(s.iv); break;
          case Op::kSin: s.iv = iv_sin(s.iv); break;
          case Op::kCos: s.iv = iv_cos(s.iv); break;
          case Op::kSign: s.iv = iv_sign(s.iv); break;
          default: s.iv = iv_step(s.iv); break;
        }
        s.diff.clear();
        s.sum.clear();
        break;
      }
      case Op::kAdd:
      case Op::kSub: {
        need(2);
        const Slot r = std::move(stack.back());
        stack.pop_back();
        const Slot l = std::move(stack.back());
        stack.pop_back();
        stack.push_back(insn.op == Op::kAdd ? combine_add(l, r) : combine_sub(l, r));
        break;
      }
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kPow: {
        need(2);
        const Slot r = std::move(stack.back());
        stack.pop_back();
        Slot& l = stack.back();
        switch (insn.op) {
          case Op::kMul: l.iv = iv_mul(l.iv, r.iv); break;
          case Op::kDiv: l.iv = iv_div(l.iv, r.iv); break;
          case Op::kMod: l.iv = iv_mod(l.iv, r.iv); break;
          default: l.iv = iv_pow(l.iv, r.iv); break;
        }
        l.diff.clear();
        l.sum.clear();
        break;
      }
      case Op::kMin:
      case Op::kMax: {
        need(insn.argc);
        const std::size_t base = stack.size() - insn.argc;
        bool clean = true;
        for (std::size_t i = base; i < stack.size(); ++i) clean = clean && slot_clean(stack[i]);
        Slot acc = std::move(stack[base]);
        for (std::size_t i = 1; i < insn.argc; ++i) {
          acc = combine_minmax(acc, stack[base + i], insn.op == Op::kMin, clean, var_iv);
        }
        stack.resize(base);
        stack.push_back(std::move(acc));
        break;
      }
      case Op::kClamp: {
        need(3);
        const Slot hi = std::move(stack.back());
        stack.pop_back();
        const Slot lo = std::move(stack.back());
        stack.pop_back();
        const Slot x = std::move(stack.back());
        stack.pop_back();
        const bool clean1 = slot_clean(x) && slot_clean(lo);
        Slot m = combine_minmax(x, lo, /*is_min=*/false, clean1, var_iv);
        const bool clean2 = slot_clean(m) && slot_clean(hi);
        stack.push_back(combine_minmax(m, hi, /*is_min=*/true, clean2, var_iv));
        break;
      }
    }
  }
  need(1);
  RelBounds out;
  out.value = stack.back().iv;
  out.diff = std::move(stack.back().diff);
  out.sum = std::move(stack.back().sum);
  return out;
}

// ---------------------------------------------------------------------------
// Octagon construction (subscription as coveree B).
// ---------------------------------------------------------------------------

bool safe_variable(VarId v, const VariableRegistry& registry) {
  return v == elapsed_time_var_id() || registry.declared_range(v).has_value();
}

namespace {

struct OctSystem {
  Octagon oct{0};
  std::map<AttrId, std::size_t> attr_node;
  std::map<VarId, std::size_t> var_node;
};

/// Conjoin everything a matching (publication, assignment) pair must
/// satisfy, over attributes the subscription forces numeric, skipping
/// predicate `skip` (-1: none; the redundancy check drops one at a time).
/// Reads only the stored facts: their outer sets, programs and relational
/// bounds.
OctSystem build_octagon(const Subscription& sub, const std::vector<PredicateFacts>& facts,
                        const VariableRegistry& registry, int skip) {
  const auto& preds = sub.predicates();
  const auto skipped = [skip](std::size_t i) { return static_cast<int>(i) == skip; };

  // Per-attribute outer ValueSets, excluding the skipped predicate.
  std::map<AttrId, ValueSet> outer;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (skipped(i)) continue;
    const auto [it, inserted] = outer.try_emplace(preds[i].attr_id(), facts[i].outer);
    if (!inserted) it->second.intersect(facts[i].outer);
  }

  OctSystem sys;
  for (const auto& [attr, set] : outer) {
    if (!set.nan && set.strings == ValueSet::Strings::kNone) {
      sys.attr_node.emplace(attr, sys.attr_node.size());
    }
  }
  const std::size_t attr_count = sys.attr_node.size();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (skipped(i)) continue;
    for (const VarId v : facts[i].program.variables()) {
      if (safe_variable(v, registry) && sys.var_node.find(v) == sys.var_node.end()) {
        sys.var_node.emplace(v, attr_count + sys.var_node.size());
      }
    }
  }

  Octagon oct(attr_count + sys.var_node.size());
  for (const auto& [attr, node] : sys.attr_node) {
    const ValueSet& s = outer.at(attr);
    if (std::isfinite(s.lo)) oct.add_lower(node, s.lo, s.lo_open);
    if (std::isfinite(s.hi)) oct.add_upper(node, s.hi, s.hi_open);
  }
  for (const auto& [v, node] : sys.var_node) {
    if (v == elapsed_time_var_id()) {
      oct.add_lower(node, 0.0, false);
    } else if (const auto range = registry.declared_range(v)) {
      oct.add_lower(node, range->first, false);
      oct.add_upper(node, range->second, false);
    }
  }

  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (skipped(i) || facts[i].program.empty()) continue;
    const Predicate& pred = preds[i];
    const auto an = sys.attr_node.find(pred.attr_id());
    if (an == sys.attr_node.end()) continue;
    const RelOp op = pred.op();
    if (op == RelOp::kNe) continue;  // != constrains nothing octagonal
    const RelBounds& rb = facts[i].rel;
    const bool upper = op == RelOp::kLt || op == RelOp::kLe || op == RelOp::kEq;
    const bool lower = op == RelOp::kGt || op == RelOp::kGe || op == RelOp::kEq;
    // pub OP fl with fl - v in [d.lo, d.hi] (when fl is numeric; a matching
    // non-!= comparison implies it is): pub <= fl <= v + d.hi etc.
    for (const auto& [v, d] : rb.diff) {
      const std::size_t j = sys.var_node.at(v);
      if (upper && std::isfinite(d.hi)) oct.add_pair(an->second, +1, j, -1, d.hi, op == RelOp::kLt);
      if (lower && std::isfinite(d.lo)) oct.add_pair(an->second, -1, j, +1, -d.lo, op == RelOp::kGt);
    }
    for (const auto& [v, s] : rb.sum) {
      const std::size_t j = sys.var_node.at(v);
      if (upper && std::isfinite(s.hi)) oct.add_pair(an->second, +1, j, +1, s.hi, op == RelOp::kLt);
      if (lower && std::isfinite(s.lo)) oct.add_pair(an->second, -1, j, -1, -s.lo, op == RelOp::kGt);
    }
  }
  oct.close();
  sys.oct = std::move(oct);
  return sys;
}

// ---------------------------------------------------------------------------
// Requirement construction (subscription as coverer A).
// ---------------------------------------------------------------------------

std::vector<RelOp> upper_shortcut(bool strict) {
  return strict ? std::vector<RelOp>{RelOp::kLt}
                : std::vector<RelOp>{RelOp::kLt, RelOp::kLe, RelOp::kEq};
}

std::vector<RelOp> lower_shortcut(bool strict) {
  return strict ? std::vector<RelOp>{RelOp::kGt}
                : std::vector<RelOp>{RelOp::kGt, RelOp::kGe, RelOp::kEq};
}

RelRequirement make_req(AttrId attr, int pred_index, int sig_index) {
  RelRequirement req;
  req.attr = attr;
  req.pred_index = pred_index;
  req.sig_index = sig_index;
  return req;
}

void add_upper_candidates(RelRequirement& req, const RelBounds& rb, bool strict) {
  // pub <= env.lo <= fl; pub - v <= d.lo <= fl - v; pub + v <= s.lo <= fl + v.
  // `t` relations are excluded: the coverer evaluates with its OWN epoch.
  if (std::isfinite(rb.value.lo)) {
    req.any_of.push_back({req.attr, +1, kInvalidVarId, +1, rb.value.lo, strict});
  }
  for (const auto& [v, d] : rb.diff) {
    if (v != elapsed_time_var_id() && std::isfinite(d.lo)) {
      req.any_of.push_back({req.attr, +1, v, -1, d.lo, strict});
    }
  }
  for (const auto& [v, s] : rb.sum) {
    if (v != elapsed_time_var_id() && std::isfinite(s.lo)) {
      req.any_of.push_back({req.attr, +1, v, +1, s.lo, strict});
    }
  }
}

void add_lower_candidates(RelRequirement& req, const RelBounds& rb, bool strict) {
  if (std::isfinite(rb.value.hi)) {
    req.any_of.push_back({req.attr, -1, kInvalidVarId, +1, -rb.value.hi, strict});
  }
  for (const auto& [v, d] : rb.diff) {
    if (v != elapsed_time_var_id() && std::isfinite(d.hi)) {
      req.any_of.push_back({req.attr, -1, v, +1, -d.hi, strict});
    }
  }
  for (const auto& [v, s] : rb.sum) {
    if (v != elapsed_time_var_id() && std::isfinite(s.hi)) {
      req.any_of.push_back({req.attr, -1, v, -1, -s.hi, strict});
    }
  }
}

void emit_static(RelationalShape& out, const Predicate& pred, int p) {
  const AttrId attr = pred.attr_id();
  const Value& c = pred.constant();
  const RelOp op = pred.op();
  if (c.is_string()) {
    RelRequirement req = make_req(attr, p, -1);
    // On a numeric-forced attribute (the pair check's precondition) a string
    // comparison can only ever hold for !=; every other operator is
    // unprovable here (and already exact in the ValueSet domain).
    req.trivially_satisfied = op == RelOp::kNe;
    out.requirements.push_back(std::move(req));
    return;
  }
  const double d = *c.numeric();
  if (std::isnan(d)) {
    RelRequirement req = make_req(attr, p, -1);
    req.trivially_satisfied = op == RelOp::kNe;  // NaN is incomparable
    out.requirements.push_back(std::move(req));
    return;
  }
  if (!compares_as_double(c)) {
    // Exact-int comparisons can disagree with double space: fail closed.
    out.requirements.push_back(make_req(attr, p, -1));
    return;
  }
  switch (op) {
    case RelOp::kLt:
    case RelOp::kLe: {
      RelRequirement req = make_req(attr, p, -1);
      req.any_of.push_back({attr, +1, kInvalidVarId, +1, d, op == RelOp::kLt});
      out.requirements.push_back(std::move(req));
      break;
    }
    case RelOp::kGt:
    case RelOp::kGe: {
      RelRequirement req = make_req(attr, p, -1);
      req.any_of.push_back({attr, -1, kInvalidVarId, +1, -d, op == RelOp::kGt});
      out.requirements.push_back(std::move(req));
      break;
    }
    case RelOp::kEq: {
      RelRequirement le = make_req(attr, p, -1);
      le.any_of.push_back({attr, +1, kInvalidVarId, +1, d, false});
      RelRequirement ge = make_req(attr, p, -1);
      ge.any_of.push_back({attr, -1, kInvalidVarId, +1, -d, false});
      out.requirements.push_back(std::move(le));
      out.requirements.push_back(std::move(ge));
      break;
    }
    case RelOp::kNe: {
      RelRequirement req = make_req(attr, p, -1);
      req.any_of.push_back({attr, +1, kInvalidVarId, +1, d, true});
      req.any_of.push_back({attr, -1, kInvalidVarId, +1, -d, true});
      out.requirements.push_back(std::move(req));
      break;
    }
  }
}

void emit_evolving(RelationalShape& out, const Predicate& pred, const PredicateFacts& facts,
                   int p) {
  const AttrId attr = pred.attr_id();
  const RelOp op = pred.op();
  const ExprProgram& prog = facts.program;
  if (prog.empty()) {
    // No program to reason about OR to compare syntactically: fail closed.
    out.requirements.push_back(make_req(attr, p, -1));
    return;
  }

  const bool t_free = !std::ranges::binary_search(prog.variables(), elapsed_time_var_id());
  out.sigs.push_back({attr, op, t_free, p, prog.code()});
  const int sig_index = static_cast<int>(out.sigs.size()) - 1;

  const RelBounds& rb = facts.rel;
  // Fail-closed gates mirroring the inner set: an unset variable makes the
  // predicate fail at evaluation time regardless of any numeric bound, and a
  // maybe-NaN bound can fail every comparison except != (where it *helps*).
  // The syntactic shortcut survives both: the coveree matching via the very
  // same program implies it evaluated to a bindable, comparable value.
  const bool numeric_ok = facts.vars_set && !rb.value.maybe_nan;

  switch (op) {
    case RelOp::kLt:
    case RelOp::kLe: {
      RelRequirement req = make_req(attr, p, sig_index);
      req.shortcut_ops = upper_shortcut(op == RelOp::kLt);
      if (numeric_ok) add_upper_candidates(req, rb, op == RelOp::kLt);
      out.requirements.push_back(std::move(req));
      break;
    }
    case RelOp::kGt:
    case RelOp::kGe: {
      RelRequirement req = make_req(attr, p, sig_index);
      req.shortcut_ops = lower_shortcut(op == RelOp::kGt);
      if (numeric_ok) add_lower_candidates(req, rb, op == RelOp::kGt);
      out.requirements.push_back(std::move(req));
      break;
    }
    case RelOp::kEq: {
      RelRequirement le = make_req(attr, p, sig_index);
      le.shortcut_ops = upper_shortcut(false);
      RelRequirement ge = make_req(attr, p, sig_index);
      ge.shortcut_ops = lower_shortcut(false);
      if (numeric_ok) {
        add_upper_candidates(le, rb, false);
        add_lower_candidates(ge, rb, false);
      }
      out.requirements.push_back(std::move(le));
      out.requirements.push_back(std::move(ge));
      break;
    }
    case RelOp::kNe: {
      RelRequirement req = make_req(attr, p, sig_index);
      req.shortcut_ops = {RelOp::kLt, RelOp::kGt, RelOp::kNe};
      if (facts.vars_set) {
        if (rb.value.numeric_empty()) {
          // The bound is always NaN: != holds for every numeric value.
          req.trivially_satisfied = true;
        } else {
          // Strictly below or strictly above every numeric bound; a NaN
          // bound (maybe_nan) satisfies != outright, so it needs no gate.
          add_upper_candidates(req, rb, true);
          add_lower_candidates(req, rb, true);
        }
      }
      out.requirements.push_back(std::move(req));
      break;
    }
  }
}

void build_requirements(RelationalShape& out, const Subscription& sub,
                        const std::vector<PredicateFacts>& facts) {
  const auto& preds = sub.predicates();
  for (std::size_t p = 0; p < preds.size(); ++p) {
    if (preds[p].is_evolving()) {
      emit_evolving(out, preds[p], facts[p], static_cast<int>(p));
    } else {
      emit_static(out, preds[p], static_cast<int>(p));
    }
  }
}

// ---------------------------------------------------------------------------
// Satisfaction.
// ---------------------------------------------------------------------------

[[nodiscard]] bool code_equal(const std::vector<ExprProgram::Insn>& a,
                              const std::vector<ExprProgram::Insn>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].argc != b[i].argc || a[i].var != b[i].var ||
        std::memcmp(&a[i].k, &b[i].k, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Is `req` (owned by the shape whose sigs are `own_sigs`) discharged by the
/// coveree system (octagon + node maps + sigs)? `skip_b_pred` excludes one
/// coveree predicate from shortcut matching (redundancy checks a predicate
/// against the OTHERS of its own subscription).
bool requirement_satisfied(const RelRequirement& req, const std::vector<RelPredSig>& own_sigs,
                           const Octagon& oct, const std::map<AttrId, std::size_t>& attr_node,
                           const std::map<VarId, std::size_t>& var_node,
                           const std::vector<RelPredSig>& b_sigs, int skip_b_pred) {
  if (req.trivially_satisfied) return true;
  if (req.sig_index >= 0 && !req.shortcut_ops.empty()) {
    const RelPredSig& mine = own_sigs[static_cast<std::size_t>(req.sig_index)];
    if (mine.t_free) {
      for (const RelPredSig& sig : b_sigs) {
        if (sig.pred_index == skip_b_pred) continue;
        if (sig.attr != req.attr || !sig.t_free) continue;
        if (std::find(req.shortcut_ops.begin(), req.shortcut_ops.end(), sig.op) ==
            req.shortcut_ops.end()) {
          continue;
        }
        if (code_equal(sig.code, mine.code)) return true;
      }
    }
  }
  for (const RelCondition& cond : req.any_of) {
    const auto ai = attr_node.find(cond.attr);
    if (ai == attr_node.end()) continue;
    bool ok = false;
    if (cond.var == kInvalidVarId) {
      ok = cond.attr_sign > 0 ? oct.entails_upper(ai->second, cond.c, cond.strict)
                              : oct.entails_lower(ai->second, -cond.c, cond.strict);
    } else {
      const auto vi = var_node.find(cond.var);
      if (vi == var_node.end()) continue;
      ok = oct.entails_pair(ai->second, cond.attr_sign, vi->second, cond.var_sign, cond.c,
                            cond.strict);
    }
    if (ok) return true;
  }
  return false;
}

}  // namespace

RelationalShape relational_shape(const Subscription& sub,
                                 const std::vector<PredicateFacts>& facts,
                                 const VariableRegistry& registry) {
  RelationalShape out;
  OctSystem sys = build_octagon(sub, facts, registry, /*skip=*/-1);
  out.octagon = std::move(sys.oct);
  out.attr_node = std::move(sys.attr_node);
  out.var_node = std::move(sys.var_node);
  out.rel_unsat = out.octagon.unsatisfiable();
  build_requirements(out, sub, facts);
  return out;
}

CoverVerdict covers_relational(const SubscriptionShape& a_inner, const RelationalShape& a_rel,
                               const SubscriptionShape& b_outer, const RelationalShape& b_rel) {
  // Re-walk the per-attribute decision: relational entailment can only
  // discharge attributes the coveree forces numeric (a string or NaN value
  // on the attribute would escape every octagon constraint).
  std::vector<AttrId> failed;
  for (const auto& [attr, inner] : a_inner.attrs) {
    const auto it = b_outer.attrs.find(attr);
    if (it == b_outer.attrs.end()) return CoverVerdict::kUnknown;  // presence unfixable
    if (subset_of(it->second, inner)) continue;
    const ValueSet& o = it->second;
    if (o.nan || o.strings != ValueSet::Strings::kNone) return CoverVerdict::kUnknown;
    if (b_rel.attr_node.find(attr) == b_rel.attr_node.end()) return CoverVerdict::kUnknown;
    failed.push_back(attr);
  }
  if (failed.empty()) return CoverVerdict::kUnknown;

  // Every requirement of every A-predicate on a failed attribute must be
  // discharged (build_requirements emits at least one row per predicate, so
  // an undischargeable predicate cannot slip through silently).
  for (const RelRequirement& req : a_rel.requirements) {
    if (std::find(failed.begin(), failed.end(), req.attr) == failed.end()) continue;
    if (!requirement_satisfied(req, a_rel.sigs, b_rel.octagon, b_rel.attr_node, b_rel.var_node,
                               b_rel.sigs, /*skip_b_pred=*/-1)) {
      return CoverVerdict::kUnknown;
    }
  }
  return CoverVerdict::kCovers;
}

int find_redundant_predicate(const Subscription& sub, const SubscriptionSummary& summary,
                             const VariableRegistry& registry) {
  const auto& preds = sub.predicates();
  if (preds.size() < 2) return -1;
  const RelationalShape& self = summary.rel;
  for (std::size_t p = 0; p < preds.size(); ++p) {
    const int pi = static_cast<int>(p);
    bool possible = true;
    for (const RelRequirement& req : self.requirements) {
      if (req.pred_index == pi && req.any_of.empty() && req.shortcut_ops.empty() &&
          !req.trivially_satisfied) {
        possible = false;
        break;
      }
    }
    if (!possible) continue;
    OctSystem others = build_octagon(sub, summary.preds, registry, pi);
    // An unsatisfiable remainder entails everything vacuously; that is the
    // relationally-unsatisfiable verdict's job, not redundancy's.
    if (others.oct.unsatisfiable()) continue;
    if (others.attr_node.find(preds[p].attr_id()) == others.attr_node.end()) continue;
    bool all = true;
    for (const RelRequirement& req : self.requirements) {
      if (req.pred_index != pi) continue;
      if (!requirement_satisfied(req, self.sigs, others.oct, others.attr_node, others.var_node,
                                 self.sigs, /*skip_b_pred=*/pi)) {
        all = false;
        break;
      }
    }
    if (all) return pi;
  }
  return -1;
}

}  // namespace evps
