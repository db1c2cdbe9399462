// Base engine behaviour: static + parametric engines, generic update path,
// destination bookkeeping, cost accounting plumbing.
#include <gtest/gtest.h>

#include "evolving/ves_engine.hpp"
#include "evolving/static_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

struct StaticEngineTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg{.kind = EngineKind::kStatic};
  StaticEngine engine{cfg};
};

TEST_F(StaticEngineTest, AddMatchRemove) {
  engine.add(make_sub(1, "x >= 0; x <= 10"), NodeId{100}, host);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_TRUE(engine.contains(SubscriptionId{1}));
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")),
            std::vector<NodeId>{NodeId{100}});
  EXPECT_TRUE(match(engine, host, parse_publication("x = 11")).empty());
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_FALSE(engine.remove(SubscriptionId{1}, host));
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(StaticEngineTest, RejectsEvolvingSubscriptions) {
  EXPECT_THROW(engine.add(make_sub(1, "x >= 2 * t"), NodeId{1}, host), std::invalid_argument);
  EXPECT_EQ(engine.size(), 0u);  // rollback on failure
  EXPECT_FALSE(engine.contains(SubscriptionId{1}));
}

TEST_F(StaticEngineTest, NullAndDuplicateValidation) {
  EXPECT_THROW(engine.add(nullptr, NodeId{1}, host), std::invalid_argument);
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  EXPECT_THROW(engine.add(make_sub(1, "y > 0"), NodeId{2}, host), std::invalid_argument);
  auto no_id = std::make_shared<const Subscription>();
  EXPECT_THROW(engine.add(no_id, NodeId{1}, host), std::invalid_argument);
}

TEST_F(StaticEngineTest, DestinationsDeduplicated) {
  engine.add(make_sub(1, "x > 0"), NodeId{7}, host);
  engine.add(make_sub(2, "x > 1"), NodeId{7}, host);
  engine.add(make_sub(3, "x > 2"), NodeId{9}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")),
            (std::vector<NodeId>{NodeId{7}, NodeId{9}}));
}

TEST_F(StaticEngineTest, DestinationAndSubscriptionLookup) {
  const auto sub = make_sub(1, "x > 0");
  engine.add(sub, NodeId{3}, host);
  EXPECT_EQ(engine.destination_of(SubscriptionId{1}), NodeId{3});
  EXPECT_EQ(engine.subscription_of(SubscriptionId{1}), sub);
  EXPECT_EQ(engine.destination_of(SubscriptionId{2}), NodeId::invalid());
  EXPECT_EQ(engine.subscription_of(SubscriptionId{2}), nullptr);
}

TEST_F(StaticEngineTest, MatchCostRecorded) {
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  (void)match(engine, host, parse_publication("x = 1"));
  (void)match(engine, host, parse_publication("x = 2"));
  EXPECT_EQ(engine.costs().match.count(), 2u);
  engine.reset_costs();
  EXPECT_EQ(engine.costs().match.count(), 0u);
}

// The parametric baseline is the static engine built with kParametric: its
// in-place updates are the base class's BrokerEngine::update.
struct ParametricEngineTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg{.kind = EngineKind::kParametric};
  StaticEngine engine{cfg};
};

TEST_F(ParametricEngineTest, UpdateReplacesOperandsPositionally) {
  engine.add(make_sub(1, "symbol = 'IBM'; price >= 10; price <= 12"), NodeId{5}, host);
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 11")).size(), 1u);

  // Shift the band to [20, 22]; the symbol predicate is untouched.
  EXPECT_TRUE(engine.update(SubscriptionId{1},
                            {std::nullopt, Value{20.0}, Value{22.0}}, host));
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'IBM'; price = 11")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 21")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'MSFT'; price = 21")).empty());
}

TEST_F(ParametricEngineTest, UpdateKeepsIdAndDestination) {
  engine.add(make_sub(1, "price >= 10"), NodeId{5}, host);
  EXPECT_TRUE(engine.update(SubscriptionId{1}, {Value{30.0}}, host));
  EXPECT_EQ(engine.destination_of(SubscriptionId{1}), NodeId{5});
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.subscription_of(SubscriptionId{1})->predicates()[0].constant().as_double(),
            30.0);
}

TEST_F(ParametricEngineTest, UpdateUnknownIdReturnsFalse) {
  EXPECT_FALSE(engine.update(SubscriptionId{404}, {Value{1}}, host));
}

TEST_F(ParametricEngineTest, UpdateTooManyValuesThrows) {
  engine.add(make_sub(1, "price >= 10"), NodeId{5}, host);
  EXPECT_THROW(engine.update(SubscriptionId{1}, {Value{1}, Value{2}}, host),
               std::invalid_argument);
}

TEST_F(ParametricEngineTest, UpdateCostChargedToMaintenance) {
  engine.add(make_sub(1, "price >= 10"), NodeId{5}, host);
  EXPECT_TRUE(engine.update(SubscriptionId{1}, {Value{20.0}}, host));
  EXPECT_TRUE(engine.update(SubscriptionId{1}, {Value{25.0}}, host));
  EXPECT_EQ(engine.costs().maintenance.count(), 2u);
}

TEST_F(ParametricEngineTest, PartialUpdateKeepsUnspecifiedOperands) {
  engine.add(make_sub(1, "price >= 10; price <= 12"), NodeId{5}, host);
  EXPECT_TRUE(engine.update(SubscriptionId{1}, {Value{11.0}}, host));  // only lower bound
  EXPECT_EQ(match(engine, host, parse_publication("price = 11.5")).size(), 1u);
  EXPECT_TRUE(match(engine, host, parse_publication("price = 12.5")).empty());
}

struct EvolvingUpdateTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
};

TEST_F(EvolvingUpdateTest, UpdateOnVesReplacesStaticOperandsAndKeepsEvolving) {
  // Parametric updates compose with evolving engines (Section II: "it is
  // possible to use our evolving framework in conjunction with parametric
  // subscriptions"): the update rewrites static operands positionally while
  // evolving predicates stay in place.
  EngineConfig cfg{.kind = EngineKind::kVes};
  VesEngine engine{cfg};
  engine.add(make_sub(1, "[mei=0.5] symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  sim.run_until(SimTime::from_seconds(2.1));  // version: price <= ~12.1
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 11")).size(), 1u);

  // Re-target the static symbol predicate.
  EXPECT_TRUE(engine.update(SubscriptionId{1}, {Value{"MSFT"}}, host));
  sim.run_until(SimTime::from_seconds(2.2));
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'IBM'; price = 11")).empty());
  // The evolving price bound keeps evolving after the update. Note the
  // generic update reinstalls the subscription, so its epoch is preserved
  // from the original object; the bound continues from the same t.
  sim.run_until(SimTime::from_seconds(3.1));
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'MSFT'; price = 12.5")).size(), 1u);
  EXPECT_EQ(engine.queued_count(), 1u);  // still exactly one ESQ entry
}

TEST_F(EvolvingUpdateTest, UpdateOnLeesAndCleesKeepsLazyState) {
  for (const EngineKind kind : {EngineKind::kLees, EngineKind::kClees}) {
    EngineConfig cfg;
    cfg.kind = kind;
    const auto engine = make_engine(cfg);
    engine->add(make_sub(1, "[tt=0.000001] symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
    EXPECT_TRUE(engine->update(SubscriptionId{1}, {Value{"MSFT"}}, host));
    EXPECT_EQ(match(*engine, host, parse_publication("symbol = 'MSFT'; price = 5")).size(), 1u)
        << to_string(kind);
    EXPECT_TRUE(match(*engine, host, parse_publication("symbol = 'IBM'; price = 5")).empty())
        << to_string(kind);
    EXPECT_EQ(engine->size(), 1u);
  }
}

TEST(EngineFactory, CreatesAllKinds) {
  for (const EngineKind kind : {EngineKind::kStatic, EngineKind::kParametric, EngineKind::kVes,
                                EngineKind::kLees, EngineKind::kClees, EngineKind::kHybrid}) {
    EngineConfig cfg;
    cfg.kind = kind;
    const auto engine = make_engine(cfg);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), kind);
  }
}

TEST(EngineKindNames, Strings) {
  EXPECT_STREQ(to_string(EngineKind::kStatic), "static");
  EXPECT_STREQ(to_string(EngineKind::kVes), "VES");
  EXPECT_STREQ(to_string(EngineKind::kLees), "LEES");
  EXPECT_STREQ(to_string(EngineKind::kClees), "CLEES");
  EXPECT_STREQ(to_string(EngineKind::kParametric), "parametric");
}

}  // namespace
}  // namespace evps
