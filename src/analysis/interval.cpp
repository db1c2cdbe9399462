#include "analysis/interval.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One-ulp outward rounding: endpoint arithmetic rounds to nearest, so the
/// true bound can sit half an ulp outside the computed one. Infinities are
/// already extreme.
double down(double x) noexcept { return std::isfinite(x) ? std::nextafter(x, -kInf) : x; }
double up(double x) noexcept { return std::isfinite(x) ? std::nextafter(x, kInf) : x; }

void widen(Interval& i) noexcept {
  i.lo = down(i.lo);
  i.hi = up(i.hi);
}

// Endpoint exactness tests: widening exists to cover round-to-nearest error,
// so an endpoint whose arithmetic was provably exact keeps its crisp value —
// `v + 1` over v in [0, 4] is exactly [1, 5], and a static `x <= 5` stays
// provably covered by it (the 1-ulp fail-closed gap).

bool sum_exact(double x, double y, double s) noexcept {
  return std::isfinite(s) && s - x == y && s - y == x;
}

bool diff_exact(double x, double y, double d) noexcept {
  return std::isfinite(d) && d + y == x && x - d == y;
}

/// fma detects an inexact product as a nonzero residual — except when the
/// real residual is too small for even a subnormal (possible only when the
/// product's own magnitude sits within ~106 bits of the subnormal floor), so
/// those magnitudes fail closed.
bool prod_exact(double x, double y, double p) noexcept {
  if (!std::isfinite(p)) return false;
  if (p == 0.0) return x == 0.0 || y == 0.0;
  return std::abs(p) >= 0x1p-916 && std::fma(x, y, -p) == 0.0;
}

/// x / y == q exactly iff q * y == x exactly (same residual caveat, on x).
bool quot_exact(double x, double y, double q) noexcept {
  if (!std::isfinite(q) || !std::isfinite(y)) return false;
  if (q == 0.0) return x == 0.0;
  return std::abs(x) >= 0x1p-916 && std::fma(q, y, -x) == 0.0;
}

bool degenerate(const Interval& i) noexcept { return i.lo == i.hi; }
bool contains_zero(const Interval& i) noexcept { return i.lo <= 0.0 && 0.0 <= i.hi; }
bool contains_inf(const Interval& i) noexcept { return i.lo == -kInf || i.hi == kInf; }
/// Some finite value lies in the (non-empty) interval.
bool contains_finite(const Interval& i) noexcept { return i.lo < kInf && i.hi > -kInf; }

/// Exact result of a degenerate (point × point) operation.
Interval exact(double v, bool maybe_nan) noexcept {
  if (std::isnan(v)) return Interval::nan_only();
  Interval r = Interval::range(v, v);
  r.maybe_nan = maybe_nan;
  return r;
}

/// Numeric range spanned by non-NaN candidates; NaN candidates (0*inf,
/// inf-inf, ...) only set the flag — their finite neighbourhood limits
/// appear among the other candidates. Each candidate contributes its crisp
/// value when `exact[i]`, a 1-ulp-widened value otherwise.
Interval from_candidates(const double* cand, const bool* exact, int n, bool maybe_nan) noexcept {
  Interval r = Interval::nan_only();
  bool any = false;
  for (int i = 0; i < n; ++i) {
    if (std::isnan(cand[i])) {
      maybe_nan = true;
      continue;
    }
    const double lo = exact[i] ? cand[i] : down(cand[i]);
    const double hi = exact[i] ? cand[i] : up(cand[i]);
    if (!any) {
      r.lo = lo;
      r.hi = hi;
      any = true;
    } else {
      r.lo = std::min(r.lo, lo);
      r.hi = std::max(r.hi, hi);
    }
  }
  r.maybe_nan = maybe_nan;
  return r;
}

double sgn(double x) noexcept { return x < 0 ? -1.0 : (x > 0 ? 1.0 : 0.0); }

}  // namespace

Interval Interval::point(double v) noexcept {
  if (std::isnan(v)) return nan_only();
  return range(v, v);
}

Interval iv_neg(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  Interval r = Interval::range(-a.hi, -a.lo);  // negation is exact
  r.maybe_nan = a.maybe_nan;
  return r;
}

Interval iv_abs(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  Interval r;
  if (a.lo >= 0) {
    r = Interval::range(a.lo, a.hi);
  } else if (a.hi <= 0) {
    r = Interval::range(-a.hi, -a.lo);
  } else {
    r = Interval::range(0.0, std::max(-a.lo, a.hi));
  }
  r.maybe_nan = a.maybe_nan;  // |x| is exact
  return r;
}

Interval iv_floor(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  Interval r = Interval::range(std::floor(a.lo), std::floor(a.hi));  // exact, monotone
  r.maybe_nan = a.maybe_nan;
  return r;
}

Interval iv_ceil(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  Interval r = Interval::range(std::ceil(a.lo), std::ceil(a.hi));
  r.maybe_nan = a.maybe_nan;
  return r;
}

Interval iv_sqrt(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  if (a.hi < 0) return Interval::nan_only();
  const bool nan = a.maybe_nan || a.lo < 0;
  if (degenerate(a)) return exact(std::sqrt(a.lo), nan);
  Interval r = Interval::range(std::sqrt(std::max(a.lo, 0.0)), std::sqrt(a.hi));
  r.maybe_nan = nan;
  widen(r);  // sqrt is correctly rounded; one ulp is ample
  return r;
}

Interval iv_sin(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  const bool nan = a.maybe_nan || contains_inf(a);
  if (degenerate(a)) return exact(std::sin(a.lo), nan);
  Interval r = Interval::range(-1.0, 1.0);
  r.maybe_nan = nan;
  return r;
}

Interval iv_cos(const Interval& a) noexcept {
  if (a.numeric_empty()) return a;
  const bool nan = a.maybe_nan || contains_inf(a);
  if (degenerate(a)) return exact(std::cos(a.lo), nan);
  Interval r = Interval::range(-1.0, 1.0);
  r.maybe_nan = nan;
  return r;
}

Interval iv_sign(const Interval& a) noexcept {
  // The evaluator maps NaN to 0 (x<0 and x>0 both false), so sign never
  // yields NaN and a possible-NaN input adds 0 to the range.
  if (a.numeric_empty()) return Interval::point(0.0);
  Interval r = Interval::range(sgn(a.lo), sgn(a.hi));  // sgn is monotone
  if (a.maybe_nan) {
    r.lo = std::min(r.lo, 0.0);
    r.hi = std::max(r.hi, 0.0);
  }
  return r;
}

Interval iv_step(const Interval& a) noexcept {
  // NaN input steps to 1 (NaN < 0 is false); step never yields NaN.
  if (a.numeric_empty()) return Interval::point(1.0);
  Interval r = Interval::range(a.lo < 0 ? 0.0 : 1.0, a.hi < 0 ? 0.0 : 1.0);
  if (a.maybe_nan) r.hi = 1.0;
  return r;
}

Interval iv_add(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  bool nan = a.maybe_nan || b.maybe_nan;
  if ((a.hi == kInf && b.lo == -kInf) || (a.lo == -kInf && b.hi == kInf)) nan = true;
  if (degenerate(a) && degenerate(b)) return exact(a.lo + b.lo, nan);
  const double lo_c = a.lo + b.lo;
  const double hi_c = a.hi + b.hi;
  const double lo = std::isnan(lo_c) ? -kInf : (sum_exact(a.lo, b.lo, lo_c) ? lo_c : down(lo_c));
  const double hi = std::isnan(hi_c) ? kInf : (sum_exact(a.hi, b.hi, hi_c) ? hi_c : up(hi_c));
  Interval r = Interval::range(lo, hi);
  r.maybe_nan = nan;
  return r;
}

Interval iv_sub(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  bool nan = a.maybe_nan || b.maybe_nan;
  if ((a.hi == kInf && b.hi == kInf) || (a.lo == -kInf && b.lo == -kInf)) nan = true;
  if (degenerate(a) && degenerate(b)) return exact(a.lo - b.lo, nan);
  const double lo_c = a.lo - b.hi;
  const double hi_c = a.hi - b.lo;
  const double lo = std::isnan(lo_c) ? -kInf : (diff_exact(a.lo, b.hi, lo_c) ? lo_c : down(lo_c));
  const double hi = std::isnan(hi_c) ? kInf : (diff_exact(a.hi, b.lo, hi_c) ? hi_c : up(hi_c));
  Interval r = Interval::range(lo, hi);
  r.maybe_nan = nan;
  return r;
}

Interval iv_mul(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  bool nan = a.maybe_nan || b.maybe_nan;
  // 0 * inf can pair an interior zero with an endpoint infinity, which no
  // corner product exposes.
  if ((contains_zero(a) && contains_inf(b)) || (contains_zero(b) && contains_inf(a))) nan = true;
  if (degenerate(a) && degenerate(b)) return exact(a.lo * b.lo, nan);
  double cand[5];
  bool is_exact[5];
  int n = 0;
  const double xs[4] = {a.lo, a.lo, a.hi, a.hi};
  const double ys[4] = {b.lo, b.hi, b.lo, b.hi};
  for (int i = 0; i < 4; ++i, ++n) {
    cand[n] = xs[i] * ys[i];
    is_exact[n] = prod_exact(xs[i], ys[i], cand[n]);
  }
  // A zero in one operand times a *finite* value of the other yields 0, but
  // when that operand's endpoints are infinite every corner product is NaN
  // (e.g. [0,0] * [-inf,+inf]) and the interior zero would be lost.
  if ((contains_zero(a) && contains_finite(b)) || (contains_zero(b) && contains_finite(a))) {
    cand[n] = 0.0;
    is_exact[n++] = true;
  }
  return from_candidates(cand, is_exact, n, nan);
}

Interval iv_div(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  bool nan = a.maybe_nan || b.maybe_nan;
  if (degenerate(a) && degenerate(b)) return exact(a.lo / b.lo, nan);
  if (contains_zero(b)) {
    // x / ±0 jumps to ±inf and 0/0 is NaN; near-zero divisors reach any
    // magnitude. Give up with full range.
    Interval r = Interval::top();
    r.maybe_nan = true;
    return r;
  }
  if (contains_inf(a) && contains_inf(b)) nan = true;  // inf / inf
  double cand[5];
  bool is_exact[5];
  int n = 0;
  const double xs[4] = {a.lo, a.lo, a.hi, a.hi};
  const double ys[4] = {b.lo, b.hi, b.lo, b.hi};
  for (int i = 0; i < 4; ++i, ++n) {
    cand[n] = xs[i] / ys[i];
    is_exact[n] = quot_exact(xs[i], ys[i], cand[n]);
  }
  // finite / ±inf yields ±0; with infinite endpoints on both sides the
  // corners are all NaN (e.g. [-inf,+inf] / [+inf,+inf]) and the interior
  // zero would be lost.
  if (contains_finite(a) && contains_inf(b)) {
    cand[n] = 0.0;
    is_exact[n++] = true;
  }
  return from_candidates(cand, is_exact, n, nan);
}

Interval iv_mod(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  bool nan = a.maybe_nan || b.maybe_nan || contains_inf(a) || contains_zero(b);
  if (degenerate(a) && degenerate(b)) return exact(std::fmod(a.lo, b.lo), nan);
  // fmod(x, y): sign follows x, |result| <= min(|x|, |y|); exact in IEEE,
  // so the clipped endpoints need no widening.
  const double m = std::max(std::abs(b.lo), std::abs(b.hi));
  Interval r = Interval::range(a.lo >= 0 ? 0.0 : std::max(a.lo, -m),
                               a.hi <= 0 ? 0.0 : std::min(a.hi, m));
  r.maybe_nan = nan;
  return r;
}

Interval iv_pow(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty() || b.numeric_empty()) return Interval::nan_only();
  const bool nan = a.maybe_nan || b.maybe_nan;
  if (degenerate(a) && degenerate(b)) return exact(std::pow(a.lo, b.lo), nan);
  if (a.lo < 0) {
    // Negative bases alternate sign with integer exponents and are NaN for
    // fractional ones; no useful interval.
    Interval r = Interval::top();
    r.maybe_nan = true;
    return r;
  }
  // Non-negative base: pow is monotone in each argument separately, so the
  // extremes sit at box corners — plus 1, attained when the exponent crosses
  // 0 or the base crosses 1.
  // pow is not correctly rounded; every corner stays 1-ulp-widened.
  double cand[5];
  bool is_exact[5] = {false, false, false, false, false};
  int n = 0;
  cand[n++] = std::pow(a.lo, b.lo);
  cand[n++] = std::pow(a.lo, b.hi);
  cand[n++] = std::pow(a.hi, b.lo);
  cand[n++] = std::pow(a.hi, b.hi);
  if (contains_zero(b) || (a.lo <= 1.0 && 1.0 <= a.hi)) {
    cand[n] = 1.0;
    is_exact[n++] = true;
  }
  return from_candidates(cand, is_exact, n, nan);
}

Interval iv_min2(const Interval& a, const Interval& b) noexcept {
  // Mirrors std::min(a, b) in the evaluator's fold: a NaN accumulator (left
  // operand) sticks, a NaN element (right operand) is skipped.
  if (a.numeric_empty()) return Interval::nan_only();
  if (b.numeric_empty()) return a;
  Interval r = Interval::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
  if (b.maybe_nan) r.hi = std::max(r.hi, a.hi);  // b skipped -> result is a
  r.maybe_nan = a.maybe_nan;
  return r;
}

Interval iv_max2(const Interval& a, const Interval& b) noexcept {
  if (a.numeric_empty()) return Interval::nan_only();
  if (b.numeric_empty()) return a;
  Interval r = Interval::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
  if (b.maybe_nan) r.lo = std::min(r.lo, a.lo);
  r.maybe_nan = a.maybe_nan;
  return r;
}

Interval RegistryVarBounds::bounds(VarId var) const {
  if (var == elapsed_time_var_id()) return Interval::range(0.0, kInf);
  if (const auto range = registry_->declared_range(var)) {
    return Interval::range(range->first, range->second);
  }
  return Interval::unknown();
}

Interval eval_interval(const ExprProgram& prog, const VarBounds& vars) {
  using Op = ExprProgram::Op;
  if (prog.empty()) throw std::logic_error("abstract evaluation of an empty ExprProgram");
  std::vector<Interval> stack;
  stack.reserve(prog.max_stack());
  const auto pop = [&stack]() {
    Interval v = stack.back();
    stack.pop_back();
    return v;
  };
  for (const ExprProgram::Insn& insn : prog.code()) {
    switch (insn.op) {
      case Op::kPushConst: stack.push_back(Interval::point(insn.k)); break;
      case Op::kLoadVar: stack.push_back(vars.bounds(insn.var)); break;
      case Op::kNeg: stack.back() = iv_neg(stack.back()); break;
      case Op::kAbs: stack.back() = iv_abs(stack.back()); break;
      case Op::kFloor: stack.back() = iv_floor(stack.back()); break;
      case Op::kCeil: stack.back() = iv_ceil(stack.back()); break;
      case Op::kSqrt: stack.back() = iv_sqrt(stack.back()); break;
      case Op::kSin: stack.back() = iv_sin(stack.back()); break;
      case Op::kCos: stack.back() = iv_cos(stack.back()); break;
      case Op::kSign: stack.back() = iv_sign(stack.back()); break;
      case Op::kAdd: {
        const Interval b = pop();
        stack.back() = iv_add(stack.back(), b);
        break;
      }
      case Op::kSub: {
        const Interval b = pop();
        stack.back() = iv_sub(stack.back(), b);
        break;
      }
      case Op::kMul: {
        const Interval b = pop();
        stack.back() = iv_mul(stack.back(), b);
        break;
      }
      case Op::kDiv: {
        const Interval b = pop();
        stack.back() = iv_div(stack.back(), b);
        break;
      }
      case Op::kMod: {
        const Interval b = pop();
        stack.back() = iv_mod(stack.back(), b);
        break;
      }
      case Op::kPow: {
        const Interval b = pop();
        stack.back() = iv_pow(stack.back(), b);
        break;
      }
      case Op::kMin: {
        const std::size_t base = stack.size() - insn.argc;
        Interval m = stack[base];
        for (std::size_t i = 1; i < insn.argc; ++i) m = iv_min2(m, stack[base + i]);
        stack.resize(base);
        stack.push_back(m);
        break;
      }
      case Op::kMax: {
        const std::size_t base = stack.size() - insn.argc;
        Interval m = stack[base];
        for (std::size_t i = 1; i < insn.argc; ++i) m = iv_max2(m, stack[base + i]);
        stack.resize(base);
        stack.push_back(m);
        break;
      }
      case Op::kClamp: {
        const Interval hi = pop();
        const Interval lo = pop();
        stack.back() = iv_min2(iv_max2(stack.back(), lo), hi);
        break;
      }
      case Op::kStep: stack.back() = iv_step(stack.back()); break;
    }
  }
  return stack.back();
}

}  // namespace evps
