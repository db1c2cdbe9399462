#include "analysis/covering.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/summary.hpp"

namespace evps {

std::string_view to_string(CoverVerdict v) noexcept {
  switch (v) {
    case CoverVerdict::kCovers: return "covers";
    case CoverVerdict::kUnknown: return "unknown";
  }
  return "?";
}

bool compares_as_double(const Value& c) noexcept {
  return !c.is_int() || std::abs(*c.numeric()) < 0x1p53;
}

bool ValueSet::admits_num(double v) const noexcept {
  if (std::isnan(v)) return false;
  if (v < lo || (v == lo && lo_open)) return false;
  if (v > hi || (v == hi && hi_open)) return false;
  return std::find(excluded_nums.begin(), excluded_nums.end(), v) == excluded_nums.end();
}

bool ValueSet::admits_string(const std::string& s) const {
  switch (strings) {
    case Strings::kNone: return false;
    case Strings::kOne: return s == str;
    case Strings::kAll:
      return std::find(excluded_strs.begin(), excluded_strs.end(), s) == excluded_strs.end();
  }
  return false;
}

void ValueSet::intersect(const ValueSet& other) {
  // Strings first: the kOne case consults this set's current exclusions.
  if (strings == Strings::kAll) {
    switch (other.strings) {
      case Strings::kNone:
        strings = Strings::kNone;
        break;
      case Strings::kOne:
        strings = admits_string(other.str) ? Strings::kOne : Strings::kNone;
        str = other.str;
        break;
      case Strings::kAll:
        for (const auto& s : other.excluded_strs) {
          if (std::find(excluded_strs.begin(), excluded_strs.end(), s) == excluded_strs.end()) {
            excluded_strs.push_back(s);
          }
        }
        break;
    }
  } else if (strings == Strings::kOne && !other.admits_string(str)) {
    strings = Strings::kNone;
  }
  if (strings != Strings::kAll) excluded_strs.clear();
  if (strings != Strings::kOne) str.clear();

  if (other.lo > lo || (other.lo == lo && other.lo_open && !lo_open)) {
    lo = other.lo;
    lo_open = other.lo_open;
  }
  if (other.hi < hi || (other.hi == hi && other.hi_open && !hi_open)) {
    hi = other.hi;
    hi_open = other.hi_open;
  }
  nan = nan && other.nan;
  for (const double v : other.excluded_nums) {
    if (std::find(excluded_nums.begin(), excluded_nums.end(), v) == excluded_nums.end()) {
      excluded_nums.push_back(v);
    }
  }
  if (numeric_empty()) excluded_nums.clear();
}

bool subset_of(const ValueSet& outer, const ValueSet& inner) {
  if (outer.nan && !inner.nan) return false;

  switch (outer.strings) {
    case ValueSet::Strings::kNone: break;
    case ValueSet::Strings::kOne:
      if (!inner.admits_string(outer.str)) return false;
      break;
    case ValueSet::Strings::kAll:
      // Outer admits infinitely many strings even after finite exclusions;
      // inner must admit all strings modulo exclusions outer also makes.
      if (inner.strings != ValueSet::Strings::kAll) return false;
      for (const auto& s : inner.excluded_strs) {
        if (outer.admits_string(s)) return false;
      }
      break;
  }

  if (!outer.numeric_empty()) {
    if (outer.lo < inner.lo || outer.hi > inner.hi) return false;
    // Equal endpoint where inner is open and outer closed: the endpoint
    // itself must be unreachable in outer (via its own exclusions).
    if (outer.lo == inner.lo && inner.lo_open && !outer.lo_open && outer.admits_num(outer.lo)) {
      return false;
    }
    if (outer.hi == inner.hi && inner.hi_open && !outer.hi_open && outer.admits_num(outer.hi)) {
      return false;
    }
    for (const double v : inner.excluded_nums) {
      if (outer.admits_num(v)) return false;
    }
  }
  return true;
}

bool overlaps(const SubscriptionShape& a, const SubscriptionShape& b) {
  for (const auto& [attr, set] : a.attrs) {
    const auto it = b.attrs.find(attr);
    if (it == b.attrs.end()) continue;
    ValueSet both = set;
    both.intersect(it->second);
    if (both.empty()) return false;
  }
  return true;
}

CoverVerdict covers(const SubscriptionShape& a_inner, const SubscriptionShape& b_outer) {
  for (const auto& [attr, inner] : a_inner.attrs) {
    const auto it = b_outer.attrs.find(attr);
    // B does not force this attribute to be present: a publication without
    // it can match B but never A.
    if (it == b_outer.attrs.end()) return CoverVerdict::kUnknown;
    if (!subset_of(it->second, inner)) return CoverVerdict::kUnknown;
  }
  return CoverVerdict::kCovers;
}

CoverVerdict covers(const Subscription& a, const Subscription& b,
                    const VariableRegistry& registry, bool relational) {
  const SubscriptionSummary as = summarize(a, registry);
  const SubscriptionSummary bs = summarize(b, registry);
  const CoverVerdict v = covers(as.inner, bs.outer);
  if (v == CoverVerdict::kCovers || !relational) return v;
  return covers_relational(as.inner, as.rel, bs.outer, bs.rel);
}

}  // namespace evps
