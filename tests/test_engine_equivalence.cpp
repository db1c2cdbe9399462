// Cross-engine property tests: on randomized evolving workloads,
//   * LEES must agree exactly with direct (oracle) evaluation;
//   * CLEES with a negligible TT must agree exactly with LEES;
//   * VES must agree with the oracle away from version-staleness margins;
//   * CLEES with a real TT must agree with the oracle whenever the oracle
//     decision is stable across the whole cache window.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "evolving/clees_engine.hpp"
#include "evolving/lees_engine.hpp"
#include "evolving/ves_engine.hpp"
#include "expr_oracle.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct LinearSub {
  // x <= a + b*t + c*v
  double a, b, c;
  SubscriptionId id;

  [[nodiscard]] double bound(double t, double v) const { return a + b * t + c * v; }

  [[nodiscard]] SubscriptionPtr build() const {
    auto expr = Expr::add(
        Expr::add(Expr::constant(a), Expr::mul(Expr::constant(b), Expr::variable("t"))),
        Expr::mul(Expr::constant(c), Expr::variable("v")));
    Subscription sub;
    sub.add(Predicate{"x", RelOp::kLe, std::move(expr)});
    sub.set_id(id);
    sub.set_epoch(SimTime::zero());
    sub.set_mei(Duration::millis(10));
    sub.set_tt(Duration::micros(1));
    return std::make_shared<const Subscription>(std::move(sub));
  }
};

struct Workload {
  std::vector<LinearSub> subs;
  std::vector<std::pair<double, double>> var_changes;  // (time s, v value)
  std::vector<std::pair<double, double>> pubs;         // (time s, x value)
};

Workload make_workload(std::uint64_t seed, int n_subs, int n_pubs) {
  Rng rng{seed};
  Workload w;
  for (int i = 0; i < n_subs; ++i) {
    w.subs.push_back(LinearSub{rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(-3, 3),
                               SubscriptionId{static_cast<std::uint64_t>(i + 1)}});
  }
  double t = 0;
  for (int i = 0; i < 5; ++i) {
    t += rng.uniform(0.3, 2.0);
    w.var_changes.emplace_back(t, rng.uniform(0.0, 1.0));
  }
  t = 0.05;
  for (int i = 0; i < n_pubs; ++i) {
    t += rng.uniform(0.05, 0.4);
    w.pubs.emplace_back(t, rng.uniform(-15, 15));
  }
  return w;
}

/// Exact oracle: v value in effect at time `at`, initial 1.0.
double v_at(const Workload& w, double at) {
  double v = 1.0;
  for (const auto& [time, value] : w.var_changes) {
    if (time <= at) v = value;
  }
  return v;
}

struct Params {
  std::uint64_t seed;
  int subs;
  int pubs;
};

class EngineEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(EngineEquivalence, LeesMatchesOracleExactly) {
  const auto [seed, n_subs, n_pubs] = GetParam();
  const Workload w = make_workload(seed, n_subs, n_pubs);

  Simulator sim;
  SimHost host{sim};
  host.set_variable("v", 1.0);
  EngineConfig cfg{.kind = EngineKind::kLees};
  LeesEngine engine{cfg};
  for (const auto& s : w.subs) {
    engine.add(s.build(), NodeId{s.id.value()}, host);  // unique dest per sub
  }
  for (const auto& [time, value] : w.var_changes) {
    sim.at(sec(time), [&host, value = value] { host.set_variable("v", value); });
  }
  for (const auto& [time, x] : w.pubs) {
    sim.at(sec(time), [&, time = time, x = x] {
      std::vector<NodeId> dests;
      engine.match(Publication{{"x", Value{x}}}, nullptr, host, dests);
      std::vector<NodeId> expected;
      const double v = v_at(w, time);
      for (const auto& s : w.subs) {
        if (x <= s.bound(time, v)) expected.push_back(NodeId{s.id.value()});
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(dests, expected) << "t=" << time << " x=" << x;
    });
  }
  sim.run_all();
}

TEST_P(EngineEquivalence, CleesWithTinyTtMatchesOracleExactly) {
  const auto [seed, n_subs, n_pubs] = GetParam();
  const Workload w = make_workload(seed, n_subs, n_pubs);

  Simulator sim;
  SimHost host{sim};
  host.set_variable("v", 1.0);
  EngineConfig cfg{.kind = EngineKind::kClees};
  CleesEngine engine{cfg};
  for (const auto& s : w.subs) engine.add(s.build(), NodeId{s.id.value()}, host);
  for (const auto& [time, value] : w.var_changes) {
    sim.at(sec(time), [&host, value = value] { host.set_variable("v", value); });
  }
  for (const auto& [time, x] : w.pubs) {
    sim.at(sec(time), [&, time = time, x = x] {
      std::vector<NodeId> dests;
      engine.match(Publication{{"x", Value{x}}, {"probe", Value{1}}}, nullptr, host, dests);
      std::vector<NodeId> expected;
      const double v = v_at(w, time);
      for (const auto& s : w.subs) {
        if (x <= s.bound(time, v)) expected.push_back(NodeId{s.id.value()});
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(dests, expected) << "t=" << time << " x=" << x;
    });
  }
  sim.run_all();
}

TEST_P(EngineEquivalence, VesMatchesOracleAwayFromStalenessMargin) {
  const auto [seed, n_subs, n_pubs] = GetParam();
  const Workload w = make_workload(seed, n_subs, n_pubs);
  const double mei_s = 0.010;

  Simulator sim;
  SimHost host{sim};
  host.set_variable("v", 1.0);
  EngineConfig cfg{.kind = EngineKind::kVes};
  VesEngine engine{cfg};
  for (const auto& s : w.subs) engine.add(s.build(), NodeId{s.id.value()}, host);
  for (const auto& [time, value] : w.var_changes) {
    sim.at(sec(time), [&host, value = value] { host.set_variable("v", value); });
  }
  std::uint64_t checked = 0;
  for (const auto& [time, x] : w.pubs) {
    sim.at(sec(time), [&, time = time, x = x] {
      std::vector<NodeId> dests;
      engine.match(Publication{{"x", Value{x}}}, nullptr, host, dests);
      const double v = v_at(w, time);
      for (const auto& s : w.subs) {
        // Versions may lag by up to one MEI (plus a var change within the
        // window); skip publications whose decision could flip within it.
        const double margin =
            std::abs(s.b) * mei_s * 2 + std::abs(s.c) * 1.0 + 1e-9;
        const double dist = std::abs(x - s.bound(time, v));
        bool var_changed_recently = false;
        for (const auto& [ct, cv] : w.var_changes) {
          if (ct <= time && ct > time - 2 * mei_s) var_changed_recently = true;
        }
        if (var_changed_recently) continue;
        // Only the b-term drifts between evolutions once v is stable.
        if (dist <= std::abs(s.b) * mei_s * 2 + 1e-9) continue;
        (void)margin;
        const bool expected = x <= s.bound(time, v);
        const bool actual =
            std::find(dests.begin(), dests.end(), NodeId{s.id.value()}) != dests.end();
        ASSERT_EQ(actual, expected)
            << "t=" << time << " x=" << x << " bound=" << s.bound(time, v);
        ++checked;
      }
    });
  }
  // VES perpetually re-arms its evolution timer, so the event queue never
  // drains: bound the run at the last publication instead of draining.
  sim.run_until(sec(w.pubs.back().first + 0.001));
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, EngineEquivalence,
                         ::testing::Values(Params{11, 10, 60}, Params{12, 25, 60},
                                           Params{13, 50, 40}, Params{14, 5, 120},
                                           Params{15, 40, 80}, Params{16, 1, 200}));

// The engines evaluate install-time *compiled* programs; this oracle
// re-evaluates the same predicates by walking the expression tree and
// resolving each variable by name (expr_oracle.hpp). Nonlinear operands (min/max/abs/sqrt/
// trig/pow and a sometimes-unbound variable) force every program opcode and
// the unbound-variable fail-closed path through both pipelines.
class CompiledVsTreeOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledVsTreeOracle, LeesAndCleesAgreeWithTreeWalk) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};

  Simulator sim;
  SimHost host{sim};
  host.set_variable("v", rng.uniform(0.0, 1.0));
  if (rng.bernoulli(0.5)) host.set_variable("w", rng.uniform(-2.0, 2.0));
  // `u` stays unbound for the whole run: subscriptions referencing it can
  // never match, in both the compiled engines and the tree-walking oracle.

  const char* const shapes[] = {
      "x <= max(v, 0.2) * 10 + t",
      "x >= min(3 * v, w) - abs(w)",
      "x <= sqrt(abs(w) + 1) * 5; y >= sin(t) + cos(v)",
      "x <= clamp(2 * v, 0, 1) * 20",
      "x >= step(w) * 8 + v ^ 2",
      "x <= floor(10 * v) + ceil(t / 2)",
      "x <= u * 2 + v",
      "x != (v - v) / (v - v)",  // 0/0 -> NaN operand: kNe matches
  };
  std::vector<SubscriptionPtr> subs;
  const int n = 40;
  for (int i = 1; i <= n; ++i) {
    // Negligible TT: every CLEES probe re-materialises, so the cache cannot
    // mask a compiled-vs-tree divergence behind legitimate staleness.
    subs.push_back(testutil::make_sub(
        static_cast<std::uint64_t>(i),
        std::string("[tt=0.0000001] ") + shapes[rng.uniform_int(0, 7)]));
  }

  EngineConfig lees_cfg{.kind = EngineKind::kLees};
  EngineConfig clees_cfg{.kind = EngineKind::kClees, .default_tt = Duration::micros(1)};
  LeesEngine lees{lees_cfg};
  CleesEngine clees{clees_cfg};
  for (const auto& sub : subs) {
    const NodeId dest{sub->id().value()};
    lees.add(sub, dest, host);
    clees.add(sub, dest, host);
  }

  for (int round = 0; round < 30; ++round) {
    sim.run_until(sim.now() + Duration::millis(100));
    if (rng.bernoulli(0.3)) host.set_variable("v", rng.uniform(0.0, 1.0));
    if (rng.bernoulli(0.2)) host.set_variable("w", rng.uniform(-2.0, 2.0));
    Publication pub{{"x", Value{rng.uniform(-15.0, 25.0)}},
                    {"y", Value{rng.uniform(-2.0, 2.0)}}};
    pub.set_entry_time(sim.now());

    std::vector<NodeId> expected;
    for (const auto& sub : subs) {
      if (oracle::matches(*sub, pub, sub->scope(&host.variables(), sim.now()))) {
        expected.push_back(NodeId{sub->id().value()});
      }
    }
    std::sort(expected.begin(), expected.end());

    std::vector<NodeId> lees_dests;
    lees.match(pub, nullptr, host, lees_dests);
    ASSERT_EQ(lees_dests, expected) << "seed " << seed << " round " << round;

    std::vector<NodeId> clees_dests;
    clees.match(pub, nullptr, host, clees_dests);
    ASSERT_EQ(clees_dests, expected) << "seed " << seed << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledVsTreeOracle,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108));

}  // namespace
}  // namespace evps
