// Versioned Evolving Subscriptions behaviour (Sections IV-A, V-A).
#include <gtest/gtest.h>

#include "evolving/ves_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct VesTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg{.kind = EngineKind::kVes};
  VesEngine engine{cfg};
};

TEST_F(VesTest, StaticSubscriptionPassesThrough) {
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 1")).size(), 1u);
  EXPECT_EQ(engine.queued_count(), 0u);  // static subs never enter the ESQ
}

TEST_F(VesTest, InitialVersionMaterializedAtInstallTime) {
  // x <= 2*t with t=0 at install: version is x <= 0.
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 1")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 0")).size(), 1u);
  EXPECT_EQ(engine.queued_count(), 1u);
}

TEST_F(VesTest, TimeDrivenEvolutionAtMeiBoundary) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host);
  // Still the t=0 version just before the MEI fires.
  sim.run_until(sec(0.999));
  EXPECT_TRUE(match(engine, host, parse_publication("x = 1")).empty());
  // After the MEI the version is x <= 2.
  sim.run_until(sec(1.001));
  EXPECT_EQ(match(engine, host, parse_publication("x = 1")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 3")).empty());
  EXPECT_GE(engine.costs().evolutions, 1u);
}

TEST_F(VesTest, VersionsAreStaleBetweenEvolutions) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1.5));  // last evolution at t=1 -> x <= 2
  // The exact value at t=1.5 would be x <= 3, but the stored version lags.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 3")).empty());
  sim.run_until(sec(2.0));  // evolution at t=2 -> x <= 4
  EXPECT_EQ(match(engine, host, parse_publication("x = 3")).size(), 1u);
}

TEST_F(VesTest, MeiControlsEvolutionRate) {
  engine.add(make_sub(1, "[mei=0.5] x <= t", sec(0)), NodeId{1}, host);
  engine.add(make_sub(2, "[mei=2] y <= t", sec(0)), NodeId{2}, host);
  sim.run_until(sec(3.05));
  // Sub 1 evolved ~6 times, sub 2 once at t=2.
  EXPECT_EQ(match(engine, host, parse_publication("x = 3")).size(), 1u);
  EXPECT_EQ(match(engine, host, parse_publication("y = 2")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("y = 2.5")).empty());
}

TEST_F(VesTest, DiscreteVariableParkedUntilChange) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "[mei=1] x <= 10 * v"), NodeId{1}, host);
  sim.run_until(sec(5));
  // Due since t=1 but v never changed: parked in the ready list with the
  // original version x <= 10 still active.
  EXPECT_EQ(engine.ready_count(), 1u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  const auto evolutions_before = engine.costs().evolutions;

  // The variable change triggers the parked evolution immediately.
  host.set_variable("v", 0.1);
  EXPECT_EQ(engine.ready_count(), 0u);
  EXPECT_EQ(engine.costs().evolutions, evolutions_before + 1);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 0.5")).size(), 1u);
}

TEST_F(VesTest, ParkedSubscriptionWakesOnlyForAVariableItReads) {
  host.set_variable("v", 1.0);
  host.set_variable("w", 1.0);
  engine.add(make_sub(1, "[mei=1] x <= 10 * v"), NodeId{1}, host);
  sim.run_until(sec(2));
  ASSERT_EQ(engine.ready_count(), 1u);
  const auto evolutions_before = engine.costs().evolutions;

  host.set_variable("w", 5.0);  // not read by the subscription: stays parked
  EXPECT_EQ(engine.ready_count(), 1u);
  EXPECT_EQ(engine.costs().evolutions, evolutions_before);

  host.set_variable("v", 0.1);
  EXPECT_EQ(engine.ready_count(), 0u);
  EXPECT_EQ(engine.costs().evolutions, evolutions_before + 1);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(VesTest, UnsetVariableVersionNeverMatchesUntilFirstSet) {
  // Client hop over a variable the broker has not seen: the version is the
  // never-matching `x < NaN`, and it parks, since nothing changed.
  engine.add(make_sub(1, "[mei=1] x <= 10 * ves_unset_u"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = -1000")).empty());
  sim.run_until(sec(2));
  EXPECT_EQ(engine.ready_count(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = -1000")).empty());

  host.set_variable("ves_unset_u", 1.0);  // the first set evolves it
  EXPECT_EQ(engine.ready_count(), 0u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 11")).empty());
}

TEST_F(VesTest, VariableChangeBeforeMeiWaitsForDueTime) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "[mei=2] x <= 10 * v"), NodeId{1}, host);
  sim.run_until(sec(0.5));
  host.set_variable("v", 0.1);  // changes within the MEI window
  // Version must still be the original x <= 10 (MEI not elapsed).
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  // At the due time the engine notices the changed variable and evolves.
  sim.run_until(sec(2.001));
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(VesTest, SameInstantOverwriteEvolvesAtDueTime) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "[mei=2] x <= 10 * v"), NodeId{1}, host);
  host.set_variable("v", 0.1);  // overwrites the value the version was built from
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  // At the due time the overwrite counts as a change: the version evolves
  // instead of parking with the overwritten value.
  sim.run_until(sec(2.001));
  EXPECT_EQ(engine.ready_count(), 0u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(VesTest, MixedTimeAndVariableDependency) {
  host.set_variable("v", 2.0);
  engine.add(make_sub(1, "[mei=1] x <= t * v"), NodeId{1}, host);
  sim.run_until(sec(2.1));  // evolutions at 1s, 2s; version: x <= 2*2 = 4
  EXPECT_EQ(match(engine, host, parse_publication("x = 4")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(VesTest, UnsubscribeStopsEvolution) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1.5));
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_EQ(engine.queued_count(), 0u);
  const auto evolutions = engine.costs().evolutions;
  sim.run_until(sec(5));
  EXPECT_EQ(engine.costs().evolutions, evolutions);  // no further evolutions
  EXPECT_TRUE(match(engine, host, parse_publication("x = 0")).empty());
}

TEST_F(VesTest, MaintenanceCostGrowsWithEvolutions) {
  engine.add(make_sub(1, "[mei=0.5] x <= t"), NodeId{1}, host);
  sim.run_until(sec(4));
  // 1 initial materialisation + ~7-8 evolutions.
  EXPECT_GE(engine.costs().maintenance.count(), 7u);
  EXPECT_GE(engine.costs().evolutions, 6u);
}

TEST_F(VesTest, ManySubscriptionsEvolveIndependently) {
  for (std::uint64_t i = 1; i <= 50; ++i) {
    engine.add(make_sub(i, "[mei=1] x <= 2 * t"), NodeId{i}, host);
  }
  sim.run_until(sec(2.5));
  const auto dests = match(engine, host, parse_publication("x = 4"));
  EXPECT_EQ(dests.size(), 50u);  // all versions show x <= 4 after the t=2 evolution
}

TEST_F(VesTest, SubscriptionEpochAnchorsTime) {
  // Install at t=5 with epoch 5: the version at install is x <= 0.
  sim.run_until(sec(5));
  engine.add(make_sub(1, "[mei=1] x <= 2 * t", sec(5)), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 0")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 1")).empty());
  sim.run_until(sec(6.001));  // t=1 since epoch -> x <= 2
  EXPECT_EQ(match(engine, host, parse_publication("x = 2")).size(), 1u);
}

TEST_F(VesTest, SnapshotIgnoredByDesign) {
  engine.add(make_sub(1, "[mei=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1.1));  // version x <= 2
  VariableSnapshot snapshot = make_variable_snapshot({{"t", 100.0}});  // would imply x <= 200
  std::vector<NodeId> dests;
  engine.match(parse_publication("x = 50"), &snapshot, host, dests);
  EXPECT_TRUE(dests.empty());  // VES cannot honour snapshots (Section V-D)
}

}  // namespace
}  // namespace evps
