#include "message/subscription.hpp"

#include <gtest/gtest.h>

#include "expr/parser.hpp"
#include "expr_oracle.hpp"

namespace evps {
namespace {

using oracle::scope_of;

Subscription game_subscription() {
  // Section III-C: 6x4 rectangle moving with t.
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, parse_expr("-3 + t")});
  sub.add(Predicate{"x", RelOp::kLe, parse_expr("3 + t")});
  sub.add(Predicate{"y", RelOp::kGe, parse_expr("-2 + t")});
  sub.add(Predicate{"y", RelOp::kLe, parse_expr("2 + t")});
  return sub;
}

TEST(Subscription, EvolvingDetection) {
  Subscription sub = game_subscription();
  EXPECT_TRUE(sub.is_evolving());
  EXPECT_TRUE(sub.is_fully_evolving());
  sub.add(Predicate{"action", RelOp::kEq, Value{"pickup"}});
  EXPECT_TRUE(sub.is_evolving());
  EXPECT_FALSE(sub.is_fully_evolving());

  Subscription empty;
  EXPECT_FALSE(empty.is_evolving());
  EXPECT_FALSE(empty.is_fully_evolving());

  Subscription pure_static;
  pure_static.add(Predicate{"x", RelOp::kLt, Value{3}});
  EXPECT_FALSE(pure_static.is_evolving());
}

TEST(Subscription, PredicateSplit) {
  Subscription sub = game_subscription();
  sub.add(Predicate{"action", RelOp::kEq, Value{"pickup"}});
  EXPECT_EQ(sub.static_predicates().size(), 1u);
  EXPECT_EQ(sub.evolving_predicates().size(), 4u);
}

TEST(Subscription, Variables) {
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, parse_expr("(-3 + t) * v")});
  sub.add(Predicate{"y", RelOp::kLe, parse_expr("2 + t")});
  const auto vars = sub.variables();
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars.contains("t"));
  EXPECT_TRUE(vars.contains("v"));
}

TEST(Subscription, MatchesConjunction) {
  const Subscription sub = game_subscription();
  const EvalScope at1 = scope_of({{"t", 1.0}});
  const EvalScope at0 = scope_of({{"t", 0.0}});
  const Publication pickup{{"x", Value{4}}, {"y", Value{3}}};
  // The paper's example: matches at t=1, not at t=0.
  EXPECT_TRUE(oracle::matches(sub, pickup, at1));
  EXPECT_FALSE(oracle::matches(sub, pickup, at0));
}

TEST(Subscription, MissingAttributeFailsMatch) {
  const Subscription sub = game_subscription();
  const Publication no_y{{"x", Value{0}}};
  EXPECT_FALSE(oracle::matches(sub, no_y, scope_of({{"t", 1.0}})));
}

TEST(Subscription, EmptySubscriptionNeverMatches) {
  const Subscription sub;
  EXPECT_FALSE(oracle::matches(sub, Publication{{"x", Value{1}}}, EvalScope{}));
  EXPECT_FALSE(sub.matches(Publication{{"x", Value{1}}}));
}

TEST(Subscription, StaticFastPath) {
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, Value{0}});
  sub.add(Predicate{"x", RelOp::kLe, Value{10}});
  EXPECT_TRUE(sub.matches(Publication{{"x", Value{5}}}));
  EXPECT_FALSE(sub.matches(Publication{{"x", Value{11}}}));
}

TEST(Subscription, MaterializePreservesMetadata) {
  Subscription sub = game_subscription();
  sub.set_id(SubscriptionId{42});
  sub.set_subscriber(ClientId{3});
  sub.set_mei(Duration::seconds(2));
  sub.set_tt(Duration::seconds(0.5));
  sub.set_validity(Duration::seconds(10));
  sub.set_epoch(SimTime::from_seconds(100));

  const Subscription version = oracle::materialize(sub, scope_of({{"t", 2.0}}));
  EXPECT_FALSE(version.is_evolving());
  EXPECT_EQ(version.id(), SubscriptionId{42});
  EXPECT_EQ(version.subscriber(), ClientId{3});
  EXPECT_EQ(version.mei(), Duration::seconds(2));
  EXPECT_EQ(version.tt(), Duration::seconds(0.5));
  EXPECT_EQ(version.validity(), Duration::seconds(10));
  EXPECT_EQ(version.epoch(), SimTime::from_seconds(100));
  // x in [-1, 5], y in [0, 4].
  EXPECT_TRUE(version.matches(Publication{{"x", Value{5}}, {"y", Value{0}}}));
  EXPECT_FALSE(version.matches(Publication{{"x", Value{6}}, {"y", Value{0}}}));
}

TEST(Subscription, ScopeBindsElapsedTime) {
  Subscription sub = game_subscription();
  sub.set_epoch(SimTime::from_seconds(10));
  const EvalScope scope = sub.scope(nullptr, SimTime::from_seconds(11));
  EXPECT_DOUBLE_EQ(scope.lookup(elapsed_time_var_id()), 1.0);
}

TEST(Subscription, DefaultDurations) {
  const Subscription sub;
  EXPECT_EQ(sub.mei(), Duration::seconds(1.0));
  EXPECT_EQ(sub.tt(), Duration::seconds(1.0));
  EXPECT_EQ(sub.validity(), Duration::zero());
}

TEST(Subscription, ToStringContainsPredicates) {
  Subscription sub;
  sub.set_id(SubscriptionId{1});
  sub.add(Predicate{"x", RelOp::kLt, Value{3}});
  EXPECT_NE(sub.to_string().find("x < 3"), std::string::npos);
}

}  // namespace
}  // namespace evps
