// Lazy Evaluation Evolving Subscriptions behaviour (Sections IV-B, V-B).
#include <gtest/gtest.h>

#include "evolving/lees_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct LeesTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  // matcher_threads pinned: the exact lazy_evaluations counts below assume
  // the K=1 probe order (per-destination early exit is per shard, so an
  // EVPS_MATCHER_THREADS override would change counters, not results).
  EngineConfig cfg{.kind = EngineKind::kLees, .matcher_threads = 1};
  LeesEngine engine{cfg};
};

TEST_F(LeesTest, ExactEvaluationAtPublicationTime) {
  engine.add(make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1}, host);
  // Paper example: x=4 does not match at t=0, matches at t=1.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 4")).empty());
  sim.run_until(sec(1));
  EXPECT_EQ(match(engine, host, parse_publication("x = 4")).size(), 1u);
  sim.run_until(sec(7.001));  // window is now [4.001, 10.001]
  EXPECT_TRUE(match(engine, host, parse_publication("x = 4")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 10")).size(), 1u);
}

TEST_F(LeesTest, NoEvolutionTimersNeeded) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  EXPECT_TRUE(sim.empty());  // lazy engines schedule nothing
}

TEST_F(LeesTest, SplitSubscriptionRequiresBothParts) {
  engine.add(make_sub(1, "symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  EXPECT_EQ(engine.storage_size(), 1u);
  // Static part fails -> no match even though the evolving part matches.
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'MSFT'; price = 5")).empty());
  // Evolving part fails -> no match.
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'IBM'; price = 15")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 5")).size(), 1u);
}

TEST_F(LeesTest, StaticOnlySubscriptionDecidedByMatcher) {
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  EXPECT_EQ(engine.storage_size(), 0u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 1")).size(), 1u);
}

TEST_F(LeesTest, MissingAttributeFailsEvolvingPart) {
  engine.add(make_sub(1, "x >= t; y >= t"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 100")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 100; y = 100")).size(), 1u);
}

TEST_F(LeesTest, EarlyExitPerDestination) {
  // Two fully-evolving subscriptions for the same destination: once the
  // first matches, the second must not be evaluated.
  engine.add(make_sub(1, "x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t - 1"), NodeId{7}, host);
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().lazy_evaluations, 1u);
}

TEST_F(LeesTest, NoEarlyExitAcrossDestinations) {
  engine.add(make_sub(1, "x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t"), NodeId{8}, host);
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, (std::vector<NodeId>{NodeId{7}, NodeId{8}}));
  EXPECT_EQ(engine.costs().lazy_evaluations, 2u);
}

TEST_F(LeesTest, NonMatchingSubsFilteredOut) {
  for (std::uint64_t i = 1; i <= 10; ++i) {
    engine.add(make_sub(i, "x <= -1 - t"), NodeId{i}, host);  // never matches x=5
  }
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  // Each envelope over the window t in [0, MEI] is x <= -1: the filter
  // returns no candidate, so nothing is probed.
  EXPECT_EQ(engine.costs().envelopes, 10u);
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
  EXPECT_EQ(engine.costs().scan_probes, 0u);
}

TEST_F(LeesTest, UnboundedPartsAreScannedAndCounted) {
  // `w` is neither set nor declared, so no envelope can bound the parts:
  // they are probed on every publication, through the scan path.
  for (std::uint64_t i = 1; i <= 10; ++i) {
    engine.add(make_sub(i, "x <= 10 * lees_unset_w"), NodeId{i}, host);
  }
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(engine.costs().lazy_evaluations, 10u);
  EXPECT_EQ(engine.costs().scan_probes, 10u);
  // Once the variable is set the parts are re-enveloped and filtered.
  host.set_variable("lees_unset_w", 1.0);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 10u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 50")).empty());
  EXPECT_EQ(engine.costs().scan_probes, 10u);
  EXPECT_EQ(engine.costs().envelopes, 20u);
}

TEST_F(LeesTest, OneEnvelopeCoversTheDeclaredValidity) {
  engine.add(make_sub(1, "[validity=10] x >= t"), NodeId{1}, host);
  for (const double s : {0.0, 1.0, 4.5, 9.999}) {
    sim.run_until(sec(s));
    EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), s <= 5.0 ? 1u : 0u);
  }
  EXPECT_EQ(engine.costs().envelopes, 1u);
  // Past its validity the part is re-enveloped once per MEI window.
  sim.run_until(sec(10.5));
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 11")).size(), 1u);
  EXPECT_EQ(engine.costs().envelopes, 2u);
}

TEST_F(LeesTest, SameInstantVariableOverwriteReenvelopes) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "x <= 10 * v"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 50")).empty());
  host.set_variable("v", 10.0);  // same instant: overwrites the first value
  EXPECT_EQ(match(engine, host, parse_publication("x = 50")).size(), 1u);
}

TEST_F(LeesTest, StaticShortcutSkipsEvolvingEvaluation) {
  engine.add(make_sub(1, "symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  (void)match(engine, host, parse_publication("symbol = 'MSFT'; price = 5"));
  // The evolving part must not have been evaluated (M1 miss short-circuits).
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
}

TEST_F(LeesTest, DestinationSettledByStaticSubSkipsLazyWork) {
  engine.add(make_sub(1, "x > 0"), NodeId{7}, host);          // static
  engine.add(make_sub(2, "x >= t"), NodeId{7}, host);         // evolving, same dest
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
}

TEST_F(LeesTest, RemoveEvolvingSubscription) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  engine.add(make_sub(2, "symbol = 'A'; x >= t"), NodeId{2}, host);
  EXPECT_EQ(engine.storage_size(), 2u);
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_TRUE(engine.remove(SubscriptionId{2}, host));
  EXPECT_EQ(engine.storage_size(), 0u);
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'A'; x = 100")).empty());
}

TEST_F(LeesTest, FilterFindsPartsAfterEarlierRemoval) {
  // Three parts towards one destination; removing the first shifts the
  // others within their group, and the filter must still reach each one.
  engine.add(make_sub(1, "x >= 0 + t; x <= 1 + t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= 10 + t; x <= 11 + t"), NodeId{7}, host);
  engine.add(make_sub(3, "x >= 20 + t; x <= 21 + t"), NodeId{7}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 20.5")).size(), 1u);
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_EQ(match(engine, host, parse_publication("x = 20.5")).size(), 1u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 10.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 0.5")).empty());
  engine.add(make_sub(4, "x >= 30 + t; x <= 31 + t"), NodeId{7}, host);  // reuses a slot
  EXPECT_EQ(match(engine, host, parse_publication("x = 30.5")).size(), 1u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 20.5")).size(), 1u);
}

TEST_F(LeesTest, IdenticalFullyEvolvingSubscriptionsShareOnePart) {
  engine.add(make_sub(1, "x >= t; x <= 5 + t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t; x <= 5 + t"), NodeId{7}, host);
  EXPECT_EQ(engine.storage_size(), 1u);
  EXPECT_EQ(engine.deduped_installs(), 1u);
  // Differs only in its epoch, so in its `t` origin: no sharing.
  engine.add(make_sub(3, "x >= t; x <= 5 + t", sec(1)), NodeId{7}, host);
  EXPECT_EQ(engine.storage_size(), 2u);
  EXPECT_EQ(engine.deduped_installs(), 1u);
  // Removing the canonical member reinstalls the survivor, which alone
  // matches x = 5 at time 0 (window [0, 5]; sub 3's is [-1, 4]).
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_TRUE(engine.remove(SubscriptionId{3}, host));
  EXPECT_EQ(engine.storage_size(), 1u);
  EXPECT_EQ(engine.deduped_installs(), 0u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")), std::vector<NodeId>{NodeId{7}});
}

TEST_F(LeesTest, DiscreteVariableReadAtPublicationTime) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "x <= 10 * v"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  host.set_variable("v", 0.1);
  // No MEI lag: the very next publication sees the new value.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(LeesTest, SnapshotOverridesLocalState) {
  host.set_variable("v", 0.1);
  engine.add(make_sub(1, "x <= 10 * v"), NodeId{1}, host);
  Publication pub = parse_publication("x = 5");
  pub.set_entry_time(sim.now());
  EXPECT_TRUE(match(engine, host, pub).empty());  // local v = 0.1 -> x <= 1
  const VariableSnapshot snapshot = make_variable_snapshot({{"v", 1.0}});
  EXPECT_EQ(match(engine, host, pub, &snapshot).size(), 1u);  // snapshot v = 1
}

TEST_F(LeesTest, LazyCostChargedPerPublication) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  for (int i = 0; i < 5; ++i) (void)match(engine, host, parse_publication("x = 100"));
  EXPECT_EQ(engine.costs().lazy_eval.count(), 5u);
  EXPECT_EQ(engine.costs().lazy_evaluations, 5u);
}

}  // namespace
}  // namespace evps
