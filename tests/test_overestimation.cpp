// VES overestimation extension (Section IV-A): versions installed for
// broker next-hops are widened over the MEI window so forwarding never
// drops a publication the exact function would accept later in the window.
#include <gtest/gtest.h>

#include "broker/overlay.hpp"
#include "evolving/ves_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct OverestimationTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg{.kind = EngineKind::kVes, .overestimate_forwarding = true};
  VesEngine engine{cfg};
};

TEST_F(OverestimationTest, BrokerDestVersionCoversTheMeiWindow) {
  // x <= 2*t with MEI 1 s, installed at t=0 for a broker hop: the widened
  // version is x <= 2 (the bound at the end of the window) instead of 0.
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host, /*dest_is_broker=*/true);
  EXPECT_EQ(match(engine, host, parse_publication("x = 1.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 2.5")).empty());
}

TEST_F(OverestimationTest, ClientDestStaysExact) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host, /*dest_is_broker=*/false);
  // Exact version at t=0: x <= 0 — the staleness false negative remains for
  // the final hop, which the exact semantics require.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 1.5")).empty());
}

TEST_F(OverestimationTest, LowerBoundsWidenDownwards) {
  // x >= 5 - t: over the window [0,1] the loosest lower bound is 4.
  engine.add(make_sub(1, "[mei=1] x >= 5 - t"), NodeId{1}, host, /*dest_is_broker=*/true);
  EXPECT_EQ(match(engine, host, parse_publication("x = 4.2")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 3.8")).empty());
}

TEST_F(OverestimationTest, DisabledConfigKeepsExactVersions) {
  EngineConfig exact_cfg{.kind = EngineKind::kVes};
  VesEngine exact{exact_cfg};
  exact.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host, /*dest_is_broker=*/true);
  EXPECT_TRUE(match(exact, host, parse_publication("x = 1.5")).empty());
}

TEST_F(OverestimationTest, NonMonotoneWindowCoveredBySampling) {
  // Bound 10*sin(t) peaks inside the window [0, 2] near t = pi/2 ~ 1.57.
  // The widened bound is the interval envelope's upper end, 10 (sin over
  // [0, 2] reaches 1), not the largest of a few samples.
  engine.add(make_sub(1, "[mei=2] x <= 10 * sin(t)"), NodeId{1}, host,
             /*dest_is_broker=*/true);
  EXPECT_EQ(match(engine, host, parse_publication("x = 9.0")).size(), 1u);
}

TEST_F(OverestimationTest, CurvedBoundPeakInsideWindowIsForwarded) {
  // At t ~ pi/2 the exact bound of 10*sin(t) is 10, so x = 9.5 matches the
  // subscription there. A three-point sample of the window (t = 0, 1, 2)
  // would widen the bound only to 9.09 and drop it at the forwarding broker.
  engine.add(make_sub(1, "[mei=2] x <= 10 * sin(t)"), NodeId{1}, host,
             /*dest_is_broker=*/true);
  sim.run_until(sec(1.5708));  // still inside the first MEI window
  EXPECT_EQ(match(engine, host, parse_publication("x = 9.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 10.5")).empty());
}

TEST_F(OverestimationTest, UnsetVariableWidensInsteadOfThrowing) {
  // `load` has no value yet: its envelope is unknown, so the broker-hop
  // version forwards everything rather than failing the install.
  EXPECT_NO_THROW(engine.add(make_sub(1, "[mei=1] x <= 2 * load"), NodeId{1}, host,
                             /*dest_is_broker=*/true));
  EXPECT_EQ(match(engine, host, parse_publication("x = 1000")).size(), 1u);
  // Once `load` is set, the next evolution pins it to its value.
  host.set_variable("load", 1.0);
  sim.run_until(sec(1.01));
  EXPECT_EQ(match(engine, host, parse_publication("x = 1.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 2.5")).empty());
}

TEST_F(OverestimationTest, StaticAndEqualityPredicatesUntouched) {
  engine.add(make_sub(1, "[mei=1] symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host,
             /*dest_is_broker=*/true);
  // Widened: price <= 11; equality untouched.
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 10.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'MSFT'; price = 10.5")).empty());
}

TEST_F(OverestimationTest, EvolvedVersionsStayWidened) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host, /*dest_is_broker=*/true);
  sim.run_until(sec(3.01));  // last evolution at t=3: widened bound 2*(3+1)=8
  EXPECT_EQ(match(engine, host, parse_publication("x = 7.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 8.5")).empty());
}

TEST(OverestimationOverlay, EliminatesForwardingFalseNegatives) {
  // Deployment where inner (forwarding) brokers evolve coarsely to save
  // maintenance (default MEI 2 s) while the subscriber's edge broker stays
  // fine-grained (default MEI 0.25 s). A publication inside the edge's
  // nearly-exact window but outside the inner broker's stale version is
  // dropped upstream — unless the inner version is overestimated.
  const auto run = [](bool overestimate) {
    Simulator sim;
    Overlay overlay{sim};
    BrokerConfig edge_cfg;
    edge_cfg.engine.kind = EngineKind::kVes;
    edge_cfg.engine.default_mei = Duration::seconds(0.25);
    edge_cfg.engine.overestimate_forwarding = overestimate;
    BrokerConfig inner_cfg = edge_cfg;
    inner_cfg.engine.default_mei = Duration::seconds(2.0);

    Broker& edge = overlay.add_broker("edge", edge_cfg);
    Broker& inner = overlay.add_broker("inner", inner_cfg);
    overlay.connect(edge, inner, Duration::millis(1));
    auto& sub = overlay.add_client("sub");
    auto& feed = overlay.add_client("feed");
    sub.connect(edge, Duration::zero());
    feed.connect(inner, Duration::zero());

    // Window [t-0.5, t+0.5]; mei=0 defers to each broker's default MEI.
    Subscription s = parse_subscription("[mei=0] x >= t - 0.5; x <= t + 0.5");
    s.set_id(SubscriptionId{1});
    sub.subscribe(s);
    sim.run_until(SimTime::from_seconds(2.5));
    // Exact window at t=2.5 is [2.0, 3.0]. The edge version (evolved at
    // t=2.5) matches x=2.9; the inner broker's last exact version (t=2.0)
    // says [1.5, 2.5] and would drop it.
    feed.publish("x = 2.9");
    sim.run_until(SimTime::from_seconds(4));
    return sub.deliveries().size();
  };
  EXPECT_EQ(run(false), 0u);  // dropped at the stale forwarding version
  EXPECT_EQ(run(true), 1u);   // widened inner version forwards; edge delivers
}

TEST(OverestimationOverlay, UnsetVariableAtForwardingBrokerDoesNotThrow) {
  // A widened broker-hop install that references a variable with no value
  // yet must not throw out of the broker's message handler.
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kVes;
  cfg.engine.overestimate_forwarding = true;
  Broker& edge = overlay.add_broker("edge", cfg);
  Broker& inner = overlay.add_broker("inner", cfg);
  overlay.connect(edge, inner, Duration::millis(1));
  auto& sub = overlay.add_client("sub");
  auto& feed = overlay.add_client("feed");
  sub.connect(edge, Duration::zero());
  feed.connect(inner, Duration::zero());

  sub.subscribe("[mei=1] x <= 2 * load");
  EXPECT_NO_THROW(sim.run_until(SimTime::from_seconds(0.5)));
  // The edge broker's exact version fails closed while `load` is unset.
  feed.publish("x = 1");
  EXPECT_NO_THROW(sim.run_until(SimTime::from_seconds(0.9)));
  EXPECT_TRUE(sub.deliveries().empty());
}

}  // namespace
}  // namespace evps
