// Cached Lazy Evaluation Evolving Subscriptions behaviour (Sections IV-C, V-C).
#include <gtest/gtest.h>

#include "evolving/clees_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct CleesTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  // matcher_threads pinned: the exact cache-hit/miss counts below assume the
  // K=1 probe order (sharded early exit can probe — and cache — parts the
  // sequential order skips, so counters differ and a later publication can
  // meet a different, still at most TT old, version).
  EngineConfig cfg{.kind = EngineKind::kClees, .matcher_threads = 1};
  CleesEngine engine{cfg};
};

TEST_F(CleesTest, FirstPublicationTriggersLazyEvaluation) {
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1));
  EXPECT_EQ(match(engine, host, parse_publication("x = 2")).size(), 1u);
  EXPECT_EQ(engine.costs().cache_misses, 1u);
  EXPECT_EQ(engine.costs().cache_hits, 0u);
}

TEST_F(CleesTest, CachedVersionReusedWithinTt) {
  // Paper Figure 2(b): pubs at 1s, 1.5s, 3s with TT=1s -> lazy evaluation at
  // 1s and 3s, cache hit at 1.5s.
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1));
  (void)match(engine, host, parse_publication("x = 0"));
  sim.run_until(sec(1.5));
  (void)match(engine, host, parse_publication("x = 0"));
  sim.run_until(sec(3));
  (void)match(engine, host, parse_publication("x = 0"));
  EXPECT_EQ(engine.costs().cache_misses, 2u);
  EXPECT_EQ(engine.costs().cache_hits, 1u);
  EXPECT_EQ(engine.costs().lazy_evaluations, 2u);
}

TEST_F(CleesTest, CacheStalenessWithinTt) {
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  sim.run_until(sec(1));
  // Materialise at t=1: version x <= 2.
  EXPECT_EQ(match(engine, host, parse_publication("x = 2")).size(), 1u);
  sim.run_until(sec(1.5));
  // The exact bound would now be 3, but the cached version says 2.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 3")).empty());
  sim.run_until(sec(2.1));  // cache expired; fresh bound 4.2
  EXPECT_EQ(match(engine, host, parse_publication("x = 3")).size(), 1u);
}

TEST_F(CleesTest, CacheExpiryDependsOnPublicationsNotTimers) {
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  EXPECT_TRUE(sim.empty());  // no timers, unlike VES
  sim.run_until(sec(50));
  // First probe after a long quiet period evaluates fresh.
  EXPECT_EQ(match(engine, host, parse_publication("x = 99")).size(), 1u);
  EXPECT_EQ(engine.costs().cache_misses, 1u);
}

TEST_F(CleesTest, TinyTtBehavesLikeLees) {
  engine.add(make_sub(1, "[tt=0.000001] x <= 2 * t"), NodeId{1}, host);
  for (double t = 0.5; t < 3.0; t += 0.5) {
    sim.run_until(sec(t));
    const bool expect_match = 2.0 <= 2.0 * t;
    EXPECT_EQ(!match(engine, host, parse_publication("x = 2")).empty(), expect_match) << t;
  }
  EXPECT_EQ(engine.costs().cache_hits, 0u);
}

TEST_F(CleesTest, SplitSubscriptionIntersectsBothParts) {
  engine.add(make_sub(1, "[tt=1] symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  EXPECT_EQ(engine.storage_size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'MSFT'; price = 5")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 5")).size(), 1u);
  // M1 miss short-circuits before any cache interaction.
  EXPECT_EQ(engine.costs().cache_misses + engine.costs().cache_hits, 1u);
}

TEST_F(CleesTest, EarlyExitPerDestination) {
  engine.add(make_sub(1, "[tt=1] x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "[tt=1] x >= t"), NodeId{7}, host);
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().cache_misses, 1u);  // second sub never probed
}

TEST_F(CleesTest, CacheIsPerSubscription) {
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  engine.add(make_sub(2, "[tt=1] y <= 3 * t"), NodeId{2}, host);
  sim.run_until(sec(1));
  (void)match(engine, host, parse_publication("x = 0; y = 0"));
  EXPECT_EQ(engine.costs().cache_misses, 2u);
  (void)match(engine, host, parse_publication("x = 0; y = 0"));
  EXPECT_EQ(engine.costs().cache_hits, 2u);
}

TEST_F(CleesTest, RemoveDropsStorageAndCache) {
  engine.add(make_sub(1, "[tt=1] x <= 2 * t"), NodeId{1}, host);
  (void)match(engine, host, parse_publication("x = 0"));
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_EQ(engine.storage_size(), 0u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 0")).empty());
}

TEST_F(CleesTest, StaticSubscriptionPassesThrough) {
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  EXPECT_EQ(engine.storage_size(), 0u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 1")).size(), 1u);
  EXPECT_EQ(engine.costs().cache_misses, 0u);
}

TEST_F(CleesTest, SnapshotBypassesCache) {
  host.set_variable("v", 0.1);
  engine.add(make_sub(1, "[tt=100] x <= 10 * v"), NodeId{1}, host);
  // Populate the cache with the local value (x <= 1).
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(engine.costs().cache_misses, 1u);
  // A snapshot evaluation must not consult or pollute the cache.
  Publication pub = parse_publication("x = 5");
  pub.set_entry_time(sim.now());
  const VariableSnapshot snapshot = make_variable_snapshot({{"v", 1.0}});
  EXPECT_EQ(match(engine, host, pub, &snapshot).size(), 1u);
  // The cached (non-snapshot) version is still the local one.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(engine.costs().cache_hits, 1u);
}

TEST_F(CleesTest, DiscreteVariablePickedUpAfterExpiry) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "[tt=1] x <= 10 * v"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  host.set_variable("v", 0.1);
  // Cache still holds x <= 10.
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  sim.run_until(sec(1.5));
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(CleesTest, ConstantBoundVersionOutlivesTtAndVariableChanges) {
  // A point range with the variable set by the epoch: the bound folds, so the
  // first version is exact forever, whatever else changes.
  host.variables().declare_range("clees_point_c", 2.0, 2.0);
  host.set_variable("clees_point_c", 2.0);
  engine.add(make_sub(1, "[tt=1] x <= 10 * clees_point_c"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 20")).size(), 1u);
  sim.run_until(sec(5));
  host.set_variable("clees_other_w", 1.0);
  EXPECT_EQ(match(engine, host, parse_publication("x = 20")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 21")).empty());
  EXPECT_EQ(engine.costs().cache_misses, 1u);
  EXPECT_EQ(engine.costs().cache_hits, 2u);
}

TEST_F(CleesTest, TimeInvariantVersionOutlivesTtUntilAVariableChanges) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "[tt=1] x <= 10 * v"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 10")).size(), 1u);
  sim.run_until(sec(5));
  EXPECT_EQ(match(engine, host, parse_publication("x = 10")).size(), 1u);
  EXPECT_EQ(engine.costs().cache_misses, 1u);
  EXPECT_EQ(engine.costs().cache_hits, 1u);
  // Any registry change ends the window: the next probe re-materialises.
  host.set_variable("clees_other_w", 1.0);
  EXPECT_EQ(match(engine, host, parse_publication("x = 10")).size(), 1u);
  EXPECT_EQ(engine.costs().cache_misses, 2u);
}

}  // namespace
}  // namespace evps
