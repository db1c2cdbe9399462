// Differential fuzz harness for the covering decision procedure
// (analysis/covering.hpp), including the relational (octagon) refinement.
//
// Property under test: covers(A, B) == kCovers is a *proof* — every
// publication matching B under any reachable variable assignment, any
// evaluation instant and any pair of subscription epochs must also match A.
// The harness decodes the fuzz input as a little generation script: it
// declares variable ranges, builds two subscriptions from byte-driven
// predicate templates (constants, variable-anchored bounds, shared-centre
// moving zones, strings, min-wrapped expressions), asks covers() for a
// verdict, and — when the verdict is kCovers — replays concrete probe
// publications (random, boundary anchors and their 1-ulp neighbours, ±inf,
// NaN, strings, missing attributes) against both subscriptions under
// churned variable states. Any counterexample aborts.
//
// kUnknown verdicts are never wrong (the analysis is allowed to give up),
// so the harness only spends probe budget on kCovers pairs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/covering.hpp"
#include "expr_oracle.hpp"
#include "message/codec.hpp"
#include "fuzz_driver.hpp"

namespace {

using namespace evps;

constexpr int kVarCount = 2;
const char* const kVarNames[] = {"fc_v0", "fc_v1"};
const char* const kAttrs[] = {"fcx", "fcy"};

/// Deterministic byte decoder: past-the-end reads yield zero, so every
/// input — including the empty one — decodes to a valid script.
struct ByteStream {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t i = 0;

  std::uint8_t u8() { return i < n ? p[i++] : 0; }
  bool flag() { return (u8() & 1) != 0; }
  double in(double lo, double hi) { return lo + (hi - lo) * (u8() / 255.0); }
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One byte-driven predicate; collected offsets aim the boundary probes.
std::string make_pred(ByteStream& bs, std::vector<double>& offsets) {
  static const char* const kOps[] = {"<", "<=", ">", ">=", "=", "!="};
  const char* attr = kAttrs[bs.u8() % 2];
  const char* op = kOps[bs.u8() % 6];
  std::ostringstream os;
  switch (bs.u8() % 8) {
    case 0: {  // string constant
      os << attr << " " << (bs.flag() ? "=" : "!=") << " 'fc_tag" << bs.u8() % 3 << "'";
      return os.str();
    }
    case 1:
    case 2: {  // plain numeric constant
      const double c = bs.flag() ? std::floor(bs.in(-20.0, 20.0)) : bs.in(-20.0, 20.0);
      offsets.push_back(c);
      os << attr << " " << op << " " << num(c);
      return os.str();
    }
    default: {  // variable-anchored bound
      const std::string var = bs.u8() % 5 == 0 ? "t" : kVarNames[bs.u8() % kVarCount];
      const double c = bs.flag() ? std::floor(bs.in(-10.0, 10.0)) : bs.in(-10.0, 10.0);
      offsets.push_back(c);
      if (bs.u8() % 4 == 0) {
        os << attr << " " << op << " min(" << var << " + " << num(c) << ", "
           << num(bs.in(-15.0, 15.0)) << ")";
      } else if (bs.flag()) {
        os << attr << " " << op << " " << var << " + " << num(c);
      } else {
        os << attr << " " << op << " " << var << " - " << num(c);
      }
      return os.str();
    }
  }
}

/// Shared-centre moving zones — the relational refinement's home turf.
void make_zone_pair(ByteStream& bs, std::string& a_text, std::string& b_text,
                    std::vector<double>& offsets) {
  const char* attr = kAttrs[bs.u8() % 2];
  const std::string var = kVarNames[bs.u8() % kVarCount];
  const double c = std::floor(bs.in(-5.0, 5.0));
  const double wa = std::floor(bs.in(1.0, 60.0));
  const double wb = std::floor(bs.in(1.0, 60.0));
  offsets.push_back(c + wa);
  offsets.push_back(c - wa);
  offsets.push_back(c + wb);
  offsets.push_back(c - wb);
  std::ostringstream a, b;
  a << attr << " >= " << var << " + " << num(c - wa) << "; " << attr << " <= " << var << " + "
    << num(c + wa);
  b << attr << " >= " << var << " + " << num(c - wb) << "; " << attr << " <= " << var << " + "
    << num(c + wb);
  a_text = a.str();
  b_text = b.str();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  ByteStream bs{data, size};

  VariableRegistry reg;
  double lo[kVarCount];
  double hi[kVarCount];
  bool bound[kVarCount];
  for (int i = 0; i < kVarCount; ++i) {
    lo[i] = std::floor(bs.in(-30.0, 0.0));
    hi[i] = lo[i] + std::floor(bs.in(0.0, 60.0));
    reg.declare_range(kVarNames[i], lo[i], hi[i]);
    bound[i] = bs.u8() % 8 != 0;
    if (bound[i]) reg.set(kVarNames[i], bs.in(lo[i], hi[i]), SimTime::zero());
  }

  std::vector<double> offsets;
  std::string a_text;
  std::string b_text;
  switch (bs.u8() % 4) {
    case 0:
      make_zone_pair(bs, a_text, b_text, offsets);
      break;
    case 1:
    case 2: {  // B = A plus extras: exercises the syntactic shortcut
      const int npreds = 1 + bs.u8() % 2;
      for (int i = 0; i < npreds; ++i) {
        if (i != 0) a_text += "; ";
        a_text += make_pred(bs, offsets);
      }
      b_text = a_text;
      const int extra = bs.u8() % 3;
      for (int i = 0; i < extra; ++i) b_text += "; " + make_pred(bs, offsets);
      break;
    }
    default: {
      for (int i = 0; i < 1 + bs.u8() % 2; ++i) {
        if (i != 0) a_text += "; ";
        a_text += make_pred(bs, offsets);
      }
      for (int i = 0; i < 1 + bs.u8() % 3; ++i) {
        if (i != 0) b_text += "; ";
        b_text += make_pred(bs, offsets);
      }
      break;
    }
  }

  Subscription a = parse_subscription("[tt=0.5] " + a_text);
  a.set_id(SubscriptionId{1});
  Subscription b = parse_subscription("[tt=0.5] " + b_text);
  b.set_id(SubscriptionId{2});
  if (covers(a, b, reg, /*relational=*/true) != CoverVerdict::kCovers) return 0;

  // Distinct epochs: A subscribed at 0, B half a second later. The verdict
  // must hold at every instant regardless of either subscription's age.
  EvalScope scope_a;
  EvalScope scope_b;
  double clock = 0.6;
  for (int round = 0; round < 3; ++round) {
    clock += 0.1 + bs.in(0.0, 2.0);
    for (int i = 0; i < kVarCount; ++i) {
      if (!bound[i]) continue;
      const double v = bs.u8() % 3 == 0 ? (bs.flag() ? lo[i] : hi[i]) : bs.in(lo[i], hi[i]);
      reg.set(kVarNames[i], v, SimTime::from_seconds(clock));
    }
    const SimTime now = SimTime::from_seconds(clock + bs.in(0.0, 0.5));
    scope_a.rebind(&reg, now);
    scope_a.set_epoch(SimTime::zero());
    scope_b.rebind(&reg, now);
    scope_b.set_epoch(SimTime::from_seconds(0.5));

    std::vector<Value> probe_values;
    probe_values.emplace_back(bs.in(-80.0, 80.0));
    probe_values.emplace_back(std::numeric_limits<double>::infinity());
    probe_values.emplace_back(-std::numeric_limits<double>::infinity());
    probe_values.emplace_back(std::numeric_limits<double>::quiet_NaN());
    probe_values.emplace_back(std::string("fc_tag") + std::to_string(bs.u8() % 3));
    std::vector<double> anchors = offsets;
    for (int i = 0; i < kVarCount; ++i) {
      if (const auto v = reg.get_at(kVarNames[i], now)) {
        for (const double off : offsets) anchors.push_back(*v + off);
      }
    }
    for (const double anchor : anchors) {
      probe_values.emplace_back(anchor);
      probe_values.emplace_back(std::nextafter(anchor, 1e300));
      probe_values.emplace_back(std::nextafter(anchor, -1e300));
    }

    for (const Value& px : probe_values) {
      for (int py_mode = 0; py_mode < 3; ++py_mode) {
        Publication pub;
        pub.set(kAttrs[0], px);
        if (py_mode == 0) {
          pub.set(kAttrs[1], probe_values[bs.u8() % probe_values.size()]);
        } else if (py_mode == 1) {
          pub.set(kAttrs[1], Value{bs.in(-80.0, 80.0)});
        }
        if (oracle::matches(b, pub, scope_b) && !oracle::matches(a, pub, scope_a)) {
          std::fprintf(stderr,
                       "false kCovers at t=%g:\n  A: %s\n  B: %s\n  pub: %s\n",
                       clock, a_text.c_str(), b_text.c_str(), serialize(pub).c_str());
          std::abort();
        }
      }
    }
  }
  return 0;
}
