// Soundness of subscribe-time analysis (analysis/analyzer.hpp), checked the
// only way abstract interpretation can be: against thousands of randomly
// generated subscriptions, every verdict must be consistent with concrete
// evaluation over sampled variable assignments and publication values.
//
//   * interval soundness — each evolving predicate's concretely evaluated
//     bound always lies in its derived interval;
//   * kUnsatisfiable / kAdUncovered — the subscription never matches any
//     sampled publication (>= 10k probes accumulate across seeds, the
//     uncovered ones probed with publications the advertisement covers;
//     static constants include ints between 2^53 and 2^55 and strings,
//     probed with the neighbouring ints and the strings themselves);
//   * kConstant — the folded static subscription is bit-identical to lazy
//     evaluation and agrees with the original on every probe;
//   * VES overestimation — a broker-hop version widened over its MEI window
//     admits a publication at the exact bound of every instant in the window;
//   * the LEES candidate filter — a part's window envelope admits the exact
//     bound at every instant, across window ends and variable changes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "evolving/lees_engine.hpp"
#include "evolving/ves_engine.hpp"
#include "expr/ast.hpp"
#include "expr_oracle.hpp"
#include "message/advertisement.hpp"
#include "message/codec.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"
#include "message/subscription.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

constexpr int kVarCount = 4;
const char* const kVarNames[] = {"as_v0", "as_v1", "as_v2", "as_v3"};
const char* const kAttrs[] = {"sx", "sy"};

struct VarDecl {
  double lo = 0;
  double hi = 0;
  bool bound = false;  // has a value in the registry
};

/// Random expression over `t` and the first `vars` of kVarNames.
ExprPtr random_expr(Rng& rng, int depth, int vars = kVarCount) {
  if (depth <= 0 || rng.bernoulli(0.3)) {
    const int pick = static_cast<int>(rng.uniform_int(0, 3));
    if (pick == 0) return Expr::constant(rng.uniform(-8.0, 8.0));
    if (pick == 1) return Expr::variable("t");
    return Expr::variable(kVarNames[rng.uniform_int(0, vars - 1)]);
  }
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
      return Expr::binary(static_cast<BinaryOp>(rng.uniform_int(0, 5)),
                          random_expr(rng, depth - 1, vars), random_expr(rng, depth - 1, vars));
    case 2:
      return Expr::unary(static_cast<UnaryOp>(rng.uniform_int(0, 7)),
                         random_expr(rng, depth - 1, vars));
    case 3: {
      std::vector<ExprPtr> args;
      const int n = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < n; ++i) args.push_back(random_expr(rng, depth - 1, vars));
      return Expr::call(rng.bernoulli(0.5) ? CallFn::kMin : CallFn::kMax, std::move(args));
    }
    case 4: {
      std::vector<ExprPtr> args;
      for (int i = 0; i < 3; ++i) args.push_back(random_expr(rng, depth - 1, vars));
      return Expr::call(CallFn::kClamp, std::move(args));
    }
    default:
      return Expr::call(CallFn::kStep, {random_expr(rng, depth - 1, vars)});
  }
}

RelOp random_op(Rng& rng) { return static_cast<RelOp>(rng.uniform_int(0, 5)); }

/// An int a few steps from `base` (2^53, 2^54 or 2^55, where neighbouring
/// ints share one double); `probes` collects it and its neighbours.
Value near_int(Rng& rng, std::int64_t base, std::vector<Value>& probes) {
  const std::int64_t c = base + rng.uniform_int(-3, 3);
  for (std::int64_t d = -1; d <= 1; ++d) probes.emplace_back(c + d);
  return Value{c};
}

/// A static constant: mostly a small double, sometimes an int near `base`
/// or a string. `probes` collects publication values aimed at the constant.
Value random_constant(Rng& rng, std::int64_t base, std::vector<Value>& probes) {
  const double roll = rng.uniform();
  if (roll < 0.15) return near_int(rng, base, probes);
  if (roll < 0.3) {
    const char* const strings[] = {"as_a", "as_b"};
    const Value c{strings[rng.uniform_int(0, 1)]};
    probes.push_back(c);
    return c;
  }
  return Value{rng.uniform(-20.0, 20.0)};
}

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub || (std::isnan(a) && std::isnan(b));
}

TEST(AnalysisSoundness, VerdictsHoldOverSampledAssignments) {
  std::uint64_t never_probes = 0;   // probes against unsat/uncovered subs
  std::uint64_t unsat_seeds = 0;
  std::uint64_t uncovered_seeds = 0;
  std::uint64_t constant_seeds = 0;
  std::uint64_t ok_seeds = 0;

  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng{seed};
    VariableRegistry reg;
    VarDecl decls[kVarCount];
    for (int i = 0; i < kVarCount; ++i) {
      decls[i].lo = rng.uniform(-10.0, 10.0);
      // Degenerate ranges pin the variable and drive kConstant verdicts.
      decls[i].hi = rng.bernoulli(0.3) ? decls[i].lo : decls[i].lo + rng.uniform(0.0, 10.0);
      reg.declare_range(kVarNames[i], decls[i].lo, decls[i].hi);
      decls[i].bound = rng.bernoulli(0.8);
      if (decls[i].bound) {
        reg.set(kVarNames[i], rng.uniform(decls[i].lo, decls[i].hi), SimTime::zero());
      }
    }

    // The advertised publication space: a static box over both attributes.
    Advertisement ad{MessageId{seed}, ClientId{1}, {}};
    double ad_lo[2];
    double ad_hi[2];
    for (int a = 0; a < 2; ++a) {
      ad_lo[a] = rng.uniform(-20.0, 10.0);
      ad_hi[a] = ad_lo[a] + rng.uniform(0.0, 15.0);
      ad.add(Predicate{kAttrs[a], RelOp::kGe, Value{ad_lo[a]}});
      ad.add(Predicate{kAttrs[a], RelOp::kLe, Value{ad_hi[a]}});
    }

    Subscription sub;
    sub.set_id(SubscriptionId{seed});
    std::vector<Value> constant_probes;  // ints and strings aimed at static constants
    const std::int64_t big = std::int64_t{1} << rng.uniform_int(53, 55);
    if (rng.bernoulli(0.15)) {
      // A narrow int window there: bounds that round to one double can still
      // admit the ints between them.
      const char* attr = kAttrs[rng.uniform_int(0, 1)];
      sub.add(Predicate{attr, rng.bernoulli(0.5) ? RelOp::kGt : RelOp::kGe,
                        near_int(rng, big, constant_probes)});
      sub.add(Predicate{attr, rng.bernoulli(0.5) ? RelOp::kLt : RelOp::kLe,
                        near_int(rng, big, constant_probes)});
    }
    const int npreds = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < npreds; ++i) {
      const char* attr = kAttrs[rng.uniform_int(0, 1)];
      if (rng.bernoulli(0.35)) {
        const Value c = random_constant(rng, big, constant_probes);
        // Strings compare with = and != (lexicographic orders are not modelled).
        const RelOp op = c.is_string() ? (rng.bernoulli(0.5) ? RelOp::kEq : RelOp::kNe)
                                       : random_op(rng);
        sub.add(Predicate{attr, op, c});
      } else {
        sub.add(Predicate{attr, random_op(rng),
                          random_expr(rng, static_cast<int>(rng.uniform_int(1, 4)))});
      }
    }

    const auto analysis = analyze_subscription(sub, reg, {&ad});
    const SubscriptionSummary summary = summarize(sub, reg);
    ASSERT_NE(analysis.verdict, Verdict::kMalformed) << "seed " << seed;
    switch (analysis.verdict) {
      case Verdict::kUnsatisfiable: ++unsat_seeds; break;
      case Verdict::kAdUncovered: ++uncovered_seeds; break;
      case Verdict::kConstant: ++constant_seeds; break;
      default: ++ok_seeds; break;
    }

    // Pre-compile evolving predicates once per seed.
    std::vector<int> evolving_index;  // predicate index -> compiled index
    std::vector<CompiledPredicate> compiled;
    for (std::size_t i = 0; i < sub.predicates().size(); ++i) {
      if (sub.predicates()[i].is_evolving()) {
        evolving_index.push_back(static_cast<int>(i));
        compiled.emplace_back(sub.predicates()[i]);
      }
    }

    const int rounds =
        (analysis.verdict == Verdict::kUnsatisfiable || analysis.verdict == Verdict::kAdUncovered)
            ? 10
            : 4;
    std::vector<double> stack;
    EvalScope scope;
    double clock = 0.0;
    for (int round = 0; round < rounds; ++round) {
      clock += 1.0;
      for (int i = 0; i < kVarCount; ++i) {
        if (decls[i].bound) {
          reg.set(kVarNames[i], rng.uniform(decls[i].lo, decls[i].hi), sec(clock));
        }
      }
      const SimTime now = sec(clock + rng.uniform());
      scope.rebind(&reg, now);
      scope.set_epoch(SimTime::zero());

      // Interval soundness + targeted probe values (the bounds themselves).
      std::vector<double> probe_values{rng.uniform(-30.0, 30.0), ad_lo[0], ad_hi[1]};
      for (std::size_t c = 0; c < compiled.size(); ++c) {
        bool unbound = false;
        const double b = compiled[c].bound(scope, stack, unbound);
        if (!unbound) {
          const auto& iv = summary.preds[evolving_index[c]].interval;
          ASSERT_TRUE(iv.admits(b))
              << "seed " << seed << ": bound " << b << " escapes [" << iv.lo << ", " << iv.hi
              << "] nan=" << iv.maybe_nan << " for "
              << sub.predicates()[evolving_index[c]].to_string();
          probe_values.push_back(b);
        }
      }

      std::vector<Value> probes(probe_values.begin(), probe_values.end());
      probes.insert(probes.end(), constant_probes.begin(), constant_probes.end());
      for (const Value& px : probes) {
        for (const Value& py : probes) {
          Publication pub;
          pub.set(kAttrs[0], px);
          pub.set(kAttrs[1], py);
          const bool matched = oracle::matches(sub, pub, scope);
          if (analysis.verdict == Verdict::kUnsatisfiable) {
            ++never_probes;
            ASSERT_FALSE(matched) << "seed " << seed << " matched unsat sub at t=" << clock;
          } else if (analysis.verdict == Verdict::kAdUncovered) {
            // Only publications inside the advertised space are promised to
            // never match.
            if (ad.covers(pub)) {
              ++never_probes;
              ASSERT_FALSE(matched)
                  << "seed " << seed << " matched ad-uncovered sub at t=" << clock;
            }
          } else if (analysis.verdict == Verdict::kConstant) {
            ASSERT_TRUE(analysis.folded.has_value());
            ASSERT_EQ(matched, oracle::matches(*analysis.folded, pub, scope))
                << "seed " << seed << " fold diverges at t=" << clock;
          }
        }
        // Probes covered by the ad, for uncovered subscriptions.
        if (analysis.verdict == Verdict::kAdUncovered) {
          Publication pub;
          pub.set(kAttrs[0], Value{rng.uniform(ad_lo[0], ad_hi[0])});
          pub.set(kAttrs[1], Value{rng.uniform(ad_lo[1], ad_hi[1])});
          if (ad.covers(pub)) {
            ++never_probes;
            ASSERT_FALSE(oracle::matches(sub, pub, scope)) << "seed " << seed;
          }
        }
      }

      // Bit-identical fold: each folded constant equals lazy evaluation.
      if (analysis.verdict == Verdict::kConstant) {
        for (std::size_t c = 0; c < compiled.size(); ++c) {
          bool unbound = false;
          const double lazy = compiled[c].bound(scope, stack, unbound);
          ASSERT_FALSE(unbound) << "seed " << seed;
          const auto& folded_pred = analysis.folded->predicates()[evolving_index[c]];
          ASSERT_FALSE(folded_pred.is_evolving());
          const auto folded_value = folded_pred.constant().numeric();
          ASSERT_TRUE(folded_value.has_value());
          ASSERT_TRUE(same_bits(*folded_value, lazy))
              << "seed " << seed << ": folded " << *folded_value << " vs lazy " << lazy;
        }
      }
    }
  }

  // The generator must exercise every verdict, and the never-match verdicts
  // must survive a substantial number of probes.
  EXPECT_GE(never_probes, 10000u);
  EXPECT_GE(unsat_seeds, 20u);
  EXPECT_GE(uncovered_seeds, 20u);
  EXPECT_GE(constant_seeds, 20u);
  EXPECT_GE(ok_seeds, 100u);
}

TEST(AnalysisSoundness, WidenedVesVersionAdmitsEveryInWindowBound) {
  // The overestimated broker-hop version installed at `now` must contain
  // f(tau) for every tau in [now, now + MEI]: probe it densely with a
  // publication at each exact bound.
  constexpr int kInstants = 65;
  std::uint64_t probes = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng{seed};
    Simulator sim;
    testutil::SimHost host{sim};
    for (int i = 0; i < 2; ++i) host.set_variable(kVarNames[i], rng.uniform(-10.0, 10.0));
    const RelOp op = rng.bernoulli(0.5) ? RelOp::kLe : RelOp::kGe;
    const Duration mei = Duration::seconds(rng.uniform(0.1, 3.0));
    Subscription sub;
    sub.set_id(SubscriptionId{seed});
    sub.set_mei(mei);
    sub.add(Predicate{kAttrs[0], op,
                      random_expr(rng, static_cast<int>(rng.uniform_int(1, 4)), 2)});
    if (!sub.predicates()[0].is_evolving()) continue;  // folded to a constant
    const auto shared = std::make_shared<const Subscription>(sub);

    sim.run_until(sec(rng.uniform(0.0, 10.0)));
    const SimTime now = sim.now();
    EngineConfig cfg{.kind = EngineKind::kVes, .overestimate_forwarding = true,
                     .matcher_threads = 1};
    VesEngine engine{cfg};
    engine.add(shared, NodeId{1}, host, /*dest_is_broker=*/true);

    const ExprProgram prog = ExprProgram::compile(*sub.predicates()[0].fun());
    std::vector<double> stack;
    EvalScope scope;
    for (int k = 0; k < kInstants; ++k) {
      const SimTime tau = now + Duration::seconds(mei.count_seconds() * k / (kInstants - 1));
      scope.rebind(&host.variables(), tau);
      scope.set_epoch(sub.epoch());
      const double bound = prog.eval(scope, stack);
      if (std::isnan(bound)) continue;  // the exact version matches nothing
      Publication pub;
      pub.set(kAttrs[0], Value{bound});
      ++probes;
      // Matching a VES version does not depend on the clock: the version
      // installed at `now` is what the broker holds all window long.
      ASSERT_EQ(testutil::match(engine, host, pub).size(), 1u)
          << "seed " << seed << ": " << sub.predicates()[0].to_string() << " at t="
          << (tau - sub.epoch()).count_seconds() << " with bound " << bound
          << " escapes the version widened at t=" << (now - sub.epoch()).count_seconds();
    }
  }
  EXPECT_GE(probes, 20000u);
}

TEST(AnalysisSoundness, LeesFilterAdmitsEveryInWindowBound) {
  // The LEES candidate filter must never drop a publication the exact probe
  // accepts. Publish at the exact bound f(tau) at 65 instants per window,
  // over the validity window (when declared) and three MEI windows after it,
  // with one variable change half-way: every publication must be delivered.
  constexpr int kInstants = 65;
  std::uint64_t filtered = 0;  // probes the filter, not the scan, selected
  std::uint64_t probes = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng{seed};
    Simulator sim;
    testutil::SimHost host{sim};
    for (int i = 0; i < 2; ++i) host.set_variable(kVarNames[i], rng.uniform(-10.0, 10.0));
    const RelOp ops[] = {RelOp::kLe, RelOp::kGe, RelOp::kEq};
    const RelOp op = ops[rng.uniform_int(0, 2)];
    const Duration mei = Duration::seconds(rng.uniform(0.1, 3.0));
    const Duration validity =
        rng.bernoulli(0.5) ? Duration::seconds(rng.uniform(0.5, 4.0)) : Duration::zero();
    sim.run_until(sec(rng.uniform(0.0, 10.0)));
    Subscription sub;
    sub.set_id(SubscriptionId{seed});
    sub.set_mei(mei);
    sub.set_validity(validity);
    sub.set_epoch(sim.now());
    sub.add(Predicate{kAttrs[0], op,
                      random_expr(rng, static_cast<int>(rng.uniform_int(1, 4)), 2)});
    if (!sub.predicates()[0].is_evolving()) continue;  // folded to a constant
    const auto shared = std::make_shared<const Subscription>(sub);
    EngineConfig cfg{.kind = EngineKind::kLees, .matcher_threads = 1};
    LeesEngine engine{cfg};
    engine.add(shared, NodeId{1}, host);

    std::vector<SimTime> instants;
    SimTime start = sim.now();
    const auto add_window = [&](Duration length) {
      for (int k = 0; k < kInstants; ++k) {
        instants.push_back(start + Duration::micros(length.count_micros() * k / (kInstants - 1)));
      }
      start = start + length;
    };
    if (validity > Duration::zero()) add_window(validity);
    for (int w = 0; w < 3; ++w) add_window(mei);

    const ExprProgram prog = ExprProgram::compile(*sub.predicates()[0].fun());
    std::vector<double> stack;
    EvalScope scope;
    for (std::size_t k = 0; k < instants.size(); ++k) {
      sim.run_until(instants[k]);
      if (k == instants.size() / 2) host.set_variable(kVarNames[0], rng.uniform(-10.0, 10.0));
      scope.rebind(&host.variables(), sim.now());
      scope.set_epoch(sub.epoch());
      const double bound = prog.eval(scope, stack);
      if (std::isnan(bound)) continue;  // the exact probe matches nothing
      Publication pub;
      pub.set(kAttrs[0], Value{bound});
      ++probes;
      ASSERT_EQ(testutil::match(engine, host, pub).size(), 1u)
          << "seed " << seed << ": " << sub.predicates()[0].to_string() << " at t="
          << (sim.now() - sub.epoch()).count_seconds() << " with bound " << bound
          << " escapes its window envelope";
    }
    filtered += engine.costs().lazy_evaluations - engine.costs().scan_probes;
  }
  EXPECT_GE(probes, 40000u);
  EXPECT_GE(filtered, 40000u);  // nearly every part has a finite envelope
}

TEST(AnalysisSoundness, HandPickedVerdicts) {
  VariableRegistry reg;
  reg.declare_range("as_load", 0.0, 1.0);
  reg.set("as_load", 0.5, SimTime::zero());
  reg.declare_range("as_cap", 40.0, 40.0);
  reg.set("as_cap", 40.0, SimTime::zero());

  const auto analyze = [&](const char* text) {
    Subscription sub = parse_subscription(text);
    sub.set_id(SubscriptionId{1});
    return analyze_subscription(sub, reg, {});
  };

  // Bound tops out at 30 < required 50.
  const auto unsat = analyze("p <= 20 + 10 * as_load; p >= 50");
  EXPECT_EQ(unsat.verdict, Verdict::kUnsatisfiable);

  // Pinned variable: provably constant and folded to p <= 50.
  const auto constant = analyze("p <= 10 + as_cap");
  ASSERT_EQ(constant.verdict, Verdict::kConstant);
  ASSERT_TRUE(constant.folded.has_value());
  ASSERT_EQ(constant.folded->predicates().size(), 1u);
  EXPECT_FALSE(constant.folded->predicates()[0].is_evolving());
  ASSERT_TRUE(constant.folded->predicates()[0].constant().numeric().has_value());
  EXPECT_EQ(*constant.folded->predicates()[0].constant().numeric(), 50.0);

  // Plain drift with t: nothing to report.
  const auto ok = analyze("p >= -3 + t; p <= 3 + t");
  EXPECT_EQ(ok.verdict, Verdict::kOk);
  EXPECT_TRUE(ok.time_dependent);

  // Undeclared variable: bounds unknown, verdict stays kOk (never guess).
  const auto undeclared = analyze("p <= 20 + 10 * as_mystery; p >= 50");
  EXPECT_EQ(undeclared.verdict, Verdict::kOk);
}

TEST(AnalysisSoundness, ValueSetVerdictsOnBigIntsStringsAndNanBounds) {
  VariableRegistry reg;
  const auto parse = [](const char* text) {
    Subscription sub = parse_subscription(text);
    sub.set_id(SubscriptionId{1});
    return sub;
  };
  const auto analyze = [&](const char* text, const std::vector<const Advertisement*>& ads = {}) {
    return analyze_subscription(parse(text), reg, ads).verdict;
  };

  // 2^55 + 1 and 2^55 + 3 both round to the double 2^55, but the int
  // 2^55 + 2 lies strictly between them: satisfiable.
  const Value between{std::int64_t{36028797018963970}};
  EXPECT_TRUE(parse_predicate("as_x > 36028797018963969").matches(between));
  EXPECT_TRUE(parse_predicate("as_x < 36028797018963971").matches(between));
  EXPECT_EQ(analyze("as_x > 36028797018963969; as_x < 36028797018963971; as_y <= t"),
            Verdict::kOk);

  // One string both required and excluded: the attribute admits nothing.
  EXPECT_EQ(analyze("as_s = 'A'; as_s != 'A'; as_y <= t"), Verdict::kUnsatisfiable);

  // Excluding the only string an advertisement promises leaves it uncovered.
  Advertisement ad{MessageId{1}, ClientId{1}, {parse_predicate("as_s = 'A'")}};
  EXPECT_EQ(analyze("as_s != 'A'; as_y <= t", {&ad}), Verdict::kAdUncovered);
  EXPECT_EQ(analyze("as_s != 'B'; as_y <= t", {&ad}), Verdict::kOk);

  // A bound that is always NaN fails every comparison but !=: the outer set
  // is empty under <= and >= (not the lone infinity the envelope's inverted
  // endpoints would give), and full under !=.
  const AttrId x = AttributeTable::instance().intern("as_x");
  for (const char* text : {"as_x <= sqrt(-1 - t)", "as_x >= sqrt(-1 - t)"}) {
    EXPECT_TRUE(summarize(parse(text), reg).outer.attrs.at(x).empty()) << text;
    EXPECT_EQ(analyze(text), Verdict::kUnsatisfiable) << text;
  }
  EXPECT_TRUE(summarize(parse("as_x != sqrt(-1 - t)"), reg).outer.attrs.at(x).admits_num(0.0));
}

}  // namespace
}  // namespace evps
