// Differential soundness sweep for the relational covering refinement.
//
// Mirrors tests/test_covering_soundness.cpp but biases generation towards
// the octagon domain's territory: variable-anchored predicates
// (`attr op var + c`), shared-centre moving zones, and syntactically
// identical evolving bounds. Every kCovers verdict — per-attribute or
// relational — is checked against concrete evaluation over sampled variable
// assignments, evaluation instants and *distinct epochs per subscription*
// (the `t` shortcut exclusion must survive differing subscription ages),
// with numeric, boundary (exact anchors and 1-ulp neighbours), ±inf, NaN,
// string and missing-attribute probes. Zero false kCovers over the sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/covering.hpp"
#include "common/rng.hpp"
#include "expr_oracle.hpp"
#include "message/codec.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

constexpr int kVarCount = 2;
const char* const kVarNames[] = {"rs_v0", "rs_v1"};
const char* const kAttrs[] = {"rsx", "rsy"};

struct VarDecl {
  double lo = 0;
  double hi = 0;
  bool bound = false;
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One random predicate, biased towards variable-anchored bounds. Collects
/// the numeric offsets used so probes can aim at the induced boundaries.
std::string random_pred(Rng& rng, std::vector<double>& offsets) {
  static const char* const kOps[] = {"<", "<=", ">", ">=", "=", "!="};
  const char* attr = kAttrs[rng.uniform_int(0, 1)];
  const char* op = kOps[rng.uniform_int(0, 5)];
  const double roll = rng.uniform();
  std::ostringstream os;
  if (roll < 0.1) {  // string constant
    const char* sop = rng.bernoulli(0.5) ? "=" : "!=";
    os << attr << " " << sop << " 'rs_tag" << rng.uniform_int(0, 2) << "'";
    return os.str();
  }
  if (roll < 0.3) {  // plain numeric constant
    const double c = rng.bernoulli(0.4) ? std::floor(rng.uniform(-20.0, 20.0))
                                        : rng.uniform(-20.0, 20.0);
    offsets.push_back(c);
    os << attr << " " << op << " " << num(c);
    return os.str();
  }
  // Variable-anchored bound: var + c, var - c, t-anchored, or min-wrapped.
  const std::string var =
      rng.bernoulli(0.2) ? "t" : kVarNames[rng.uniform_int(0, kVarCount - 1)];
  const double c = rng.bernoulli(0.5) ? std::floor(rng.uniform(-10.0, 10.0))
                                      : rng.uniform(-10.0, 10.0);
  offsets.push_back(c);
  if (roll < 0.4) {
    os << attr << " " << op << " min(" << var << " + " << num(c) << ", "
       << num(rng.uniform(-15.0, 15.0)) << ")";
  } else if (rng.bernoulli(0.5)) {
    os << attr << " " << op << " " << var << " + " << num(c);
  } else {
    os << attr << " " << op << " " << var << " - " << num(c);
  }
  return os.str();
}

/// Shared-centre moving-zone pair: A is a half-width-`wa` zone around
/// var + c, B a half-width-`wb` zone around the same anchor — the shape the
/// per-attribute check can never prove but the octagon can (when wa >= wb).
void moving_zone_pair(Rng& rng, std::string& a_text, std::string& b_text,
                      std::vector<double>& offsets) {
  const char* attr = kAttrs[rng.uniform_int(0, 1)];
  const std::string var = kVarNames[rng.uniform_int(0, kVarCount - 1)];
  const double c = std::floor(rng.uniform(-5.0, 5.0));
  const double wa = std::floor(rng.uniform(1.0, 60.0));
  const double wb = std::floor(rng.uniform(1.0, 60.0));  // sometimes > wa
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

TEST(RelationalSoundness, NoFalseKCoversOverSeededSweep) {
  std::uint64_t covered_pairs = 0;
  std::uint64_t relational_only = 0;  // proved by the octagon, not per-attr
  std::uint64_t unknown_pairs = 0;
  std::uint64_t probes = 0;

  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng{seed};
    VariableRegistry reg;
    VarDecl decls[kVarCount];
    for (int i = 0; i < kVarCount; ++i) {
      decls[i].lo = std::floor(rng.uniform(-30.0, 0.0));
      decls[i].hi = decls[i].lo + std::floor(rng.uniform(0.0, 60.0));
      reg.declare_range(kVarNames[i], decls[i].lo, decls[i].hi);
      decls[i].bound = rng.bernoulli(0.85);
      if (decls[i].bound) {
        reg.set(kVarNames[i], rng.uniform(decls[i].lo, decls[i].hi), SimTime::zero());
      }
    }

    std::vector<double> offsets;
    std::string a_text;
    std::string b_text;
    const double mode = rng.uniform();
    if (mode < 0.35) {
      moving_zone_pair(rng, a_text, b_text, offsets);
    } else if (mode < 0.75) {
      // B starts as a copy of A plus extra predicates: exercises both the
      // syntactic shortcut (identical programs) and entailment.
      const int npreds = static_cast<int>(rng.uniform_int(1, 2));
      for (int i = 0; i < npreds; ++i) {
        if (i != 0) a_text += "; ";
        a_text += random_pred(rng, offsets);
      }
      b_text = a_text;
      const int extra = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < extra; ++i) b_text += "; " + random_pred(rng, offsets);
    } else {
      for (int i = 0; i < static_cast<int>(rng.uniform_int(1, 2)); ++i) {
        if (i != 0) a_text += "; ";
        a_text += random_pred(rng, offsets);
      }
      for (int i = 0; i < static_cast<int>(rng.uniform_int(1, 3)); ++i) {
        if (i != 0) b_text += "; ";
        b_text += random_pred(rng, offsets);
      }
    }

    Subscription a = parse_subscription("[tt=0.5] " + a_text);
    a.set_id(SubscriptionId{seed * 2});
    Subscription b = parse_subscription("[tt=0.5] " + b_text);
    b.set_id(SubscriptionId{seed * 2 + 1});

    const CoverVerdict verdict = covers(a, b, reg, /*relational=*/true);
    if (verdict == CoverVerdict::kUnknown) {
      ++unknown_pairs;
      continue;
    }
    ++covered_pairs;
    if (covers(a, b, reg, /*relational=*/false) == CoverVerdict::kUnknown) ++relational_only;

    // A and B age from different epochs: A subscribed at 0, B half a second
    // later. A kCovers verdict must hold at every instant regardless.
    EvalScope scope_a;
    EvalScope scope_b;
    double clock = 0.6;
    for (int round = 0; round < 5; ++round) {
      clock += rng.uniform(0.1, 2.0);
      for (int i = 0; i < kVarCount; ++i) {
        if (!decls[i].bound) continue;
        const double v = rng.bernoulli(0.35)
                             ? (rng.bernoulli(0.5) ? decls[i].lo : decls[i].hi)
                             : rng.uniform(decls[i].lo, decls[i].hi);
        reg.set(kVarNames[i], v, sec(clock));
      }
      const SimTime now = sec(clock + rng.uniform(0.0, 0.5));
      scope_a.rebind(&reg, now);
      scope_a.set_epoch(SimTime::zero());
      scope_b.rebind(&reg, now);
      scope_b.set_epoch(sec(0.5));

      // Probe values: random, boundary anchors (current variable value plus
      // each collected offset, and 1-ulp neighbours), ±inf, NaN, strings.
      std::vector<Value> probe_values;
      probe_values.emplace_back(rng.uniform(-80.0, 80.0));
      probe_values.emplace_back(std::numeric_limits<double>::infinity());
      probe_values.emplace_back(-std::numeric_limits<double>::infinity());
      probe_values.emplace_back(std::numeric_limits<double>::quiet_NaN());
      probe_values.emplace_back(std::string("rs_tag") + std::to_string(rng.uniform_int(0, 2)));
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
            pub.set(kAttrs[1], probe_values[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(probe_values.size()) - 1))]);
          } else if (py_mode == 1) {
            pub.set(kAttrs[1], Value{rng.uniform(-80.0, 80.0)});
          }
          ++probes;
          if (oracle::matches(b, pub, scope_b)) {
            ASSERT_TRUE(oracle::matches(a, pub, scope_a))
                << "seed " << seed << " t=" << clock << ": publication matches covered sub\n"
                << "  A: " << a_text << "\n  B: " << b_text << "\n  pub: " << serialize(pub)
                << (relational_only != 0U ? "\n  (relational-only verdict)" : "");
          }
        }
      }
    }
  }

  // The sweep must genuinely exercise the refinement, not just re-run the
  // per-attribute analysis.
  EXPECT_GE(covered_pairs, 150u);
  EXPECT_GE(relational_only, 60u);
  EXPECT_GE(unknown_pairs, 150u);
  EXPECT_GE(probes, 100000u);
}

}  // namespace
}  // namespace evps
