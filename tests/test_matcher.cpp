#include <gtest/gtest.h>

#include "expr/parser.hpp"
#include "matching/brute_force_matcher.hpp"
#include "matching/counting_matcher.hpp"
#include "message/codec.hpp"

namespace evps {
namespace {

class MatcherKinds : public ::testing::TestWithParam<MatcherKind> {
 protected:
  MatcherPtr matcher_ = make_matcher(GetParam());
};

std::vector<Predicate> preds(std::initializer_list<const char*> texts) {
  std::vector<Predicate> out;
  for (const auto* t : texts) out.push_back(parse_predicate(t));
  return out;
}

TEST_P(MatcherKinds, EmptyMatcherMatchesNothing) {
  EXPECT_TRUE(matcher_->match(parse_publication("x = 1")).empty());
  EXPECT_EQ(matcher_->size(), 0u);
}

TEST_P(MatcherKinds, SingleRangeSubscription) {
  matcher_->add(SubscriptionId{1}, preds({"x >= -3", "x <= 3", "y >= -2", "y <= 2"}));
  EXPECT_EQ(matcher_->match(parse_publication("x = 0; y = 0")),
            std::vector<SubscriptionId>{SubscriptionId{1}});
  EXPECT_TRUE(matcher_->match(parse_publication("x = 4; y = 3")).empty());
  EXPECT_TRUE(matcher_->match(parse_publication("x = 0")).empty());  // missing y
}

TEST_P(MatcherKinds, BoundaryInclusivity) {
  matcher_->add(SubscriptionId{1}, preds({"x < 3"}));
  matcher_->add(SubscriptionId{2}, preds({"x <= 3"}));
  matcher_->add(SubscriptionId{3}, preds({"x > 3"}));
  matcher_->add(SubscriptionId{4}, preds({"x >= 3"}));
  const auto at3 = matcher_->match(parse_publication("x = 3"));
  EXPECT_EQ(at3, (std::vector<SubscriptionId>{SubscriptionId{2}, SubscriptionId{4}}));
  const auto at2 = matcher_->match(parse_publication("x = 2"));
  EXPECT_EQ(at2, (std::vector<SubscriptionId>{SubscriptionId{1}, SubscriptionId{2}}));
  const auto at4 = matcher_->match(parse_publication("x = 4"));
  EXPECT_EQ(at4, (std::vector<SubscriptionId>{SubscriptionId{3}, SubscriptionId{4}}));
}

TEST_P(MatcherKinds, EqualityAndInequality) {
  matcher_->add(SubscriptionId{1}, preds({"symbol = 'IBM'"}));
  matcher_->add(SubscriptionId{2}, preds({"symbol != 'IBM'"}));
  matcher_->add(SubscriptionId{3}, preds({"price = 15"}));
  EXPECT_EQ(matcher_->match(parse_publication("symbol = 'IBM'")),
            std::vector<SubscriptionId>{SubscriptionId{1}});
  EXPECT_EQ(matcher_->match(parse_publication("symbol = 'MSFT'")),
            std::vector<SubscriptionId>{SubscriptionId{2}});
  // Int/double cross-type equality.
  EXPECT_EQ(matcher_->match(parse_publication("price = 15.0")),
            std::vector<SubscriptionId>{SubscriptionId{3}});
}

TEST_P(MatcherKinds, StringOrderingPredicates) {
  matcher_->add(SubscriptionId{1}, preds({"name < 'm'"}));
  EXPECT_EQ(matcher_->match(parse_publication("name = 'alice'")),
            std::vector<SubscriptionId>{SubscriptionId{1}});
  EXPECT_TRUE(matcher_->match(parse_publication("name = 'zoe'")).empty());
  EXPECT_TRUE(matcher_->match(parse_publication("name = 3")).empty());
}

TEST_P(MatcherKinds, MultipleSubscriptionsSameAttribute) {
  for (int i = 1; i <= 10; ++i) {
    matcher_->add(SubscriptionId{static_cast<std::uint64_t>(i)},
                  {Predicate{"x", RelOp::kGe, Value{i}}, Predicate{"x", RelOp::kLe, Value{i + 2}}});
  }
  const auto hits = matcher_->match(parse_publication("x = 5"));
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{SubscriptionId{3}, SubscriptionId{4},
                                               SubscriptionId{5}}));
}

TEST_P(MatcherKinds, RemoveSubscription) {
  matcher_->add(SubscriptionId{1}, preds({"x > 0"}));
  matcher_->add(SubscriptionId{2}, preds({"x > 0"}));
  EXPECT_EQ(matcher_->size(), 2u);
  EXPECT_TRUE(matcher_->remove(SubscriptionId{1}));
  EXPECT_FALSE(matcher_->remove(SubscriptionId{1}));
  EXPECT_FALSE(matcher_->contains(SubscriptionId{1}));
  EXPECT_TRUE(matcher_->contains(SubscriptionId{2}));
  EXPECT_EQ(matcher_->match(parse_publication("x = 1")),
            std::vector<SubscriptionId>{SubscriptionId{2}});
}

TEST_P(MatcherKinds, DuplicateIdThrows) {
  matcher_->add(SubscriptionId{1}, preds({"x > 0"}));
  EXPECT_THROW(matcher_->add(SubscriptionId{1}, preds({"y > 0"})), std::invalid_argument);
}

TEST_P(MatcherKinds, EvolvingPredicateRejected) {
  EXPECT_THROW(matcher_->add(SubscriptionId{1}, preds({"x > 2 * t"})), std::invalid_argument);
}

TEST_P(MatcherKinds, ExtraPublicationAttributesIgnored) {
  matcher_->add(SubscriptionId{1}, preds({"x > 0"}));
  EXPECT_EQ(matcher_->match(parse_publication("x = 1; y = 2; z = 'w'")).size(), 1u);
}

TEST_P(MatcherKinds, NeMatchesIncomparableTypes) {
  matcher_->add(SubscriptionId{1}, preds({"x != 5"}));
  EXPECT_EQ(matcher_->match(parse_publication("x = 'str'")).size(), 1u);
  EXPECT_EQ(matcher_->match(parse_publication("x = 4")).size(), 1u);
  EXPECT_TRUE(matcher_->match(parse_publication("x = 5")).empty());
}

TEST_P(MatcherKinds, ReAddAfterRemove) {
  matcher_->add(SubscriptionId{1}, preds({"x > 0"}));
  matcher_->remove(SubscriptionId{1});
  matcher_->add(SubscriptionId{1}, preds({"x < 0"}));
  EXPECT_TRUE(matcher_->match(parse_publication("x = 1")).empty());
  EXPECT_EQ(matcher_->match(parse_publication("x = -1")).size(), 1u);
}

TEST_P(MatcherKinds, ReboundReplacesOrInstallsAVersion) {
  matcher_->add(SubscriptionId{1}, preds({"x >= 0", "x <= 10", "symbol = 'IBM'"}));
  matcher_->rebound(SubscriptionId{1}, preds({"x >= 20", "x <= 30", "symbol = 'IBM'"}));
  EXPECT_TRUE(matcher_->match(parse_publication("x = 5; symbol = 'IBM'")).empty());
  EXPECT_EQ(matcher_->match(parse_publication("x = 25; symbol = 'IBM'")).size(), 1u);
  // A different shape: another attribute, operator and predicate count.
  matcher_->rebound(SubscriptionId{1}, preds({"y != 3"}));
  EXPECT_TRUE(matcher_->match(parse_publication("x = 25; symbol = 'IBM'")).empty());
  EXPECT_EQ(matcher_->match(parse_publication("y = 4")).size(), 1u);
  // An unknown id is installed; an evolving version throws and changes nothing.
  matcher_->rebound(SubscriptionId{2}, preds({"y != 3"}));
  EXPECT_EQ(matcher_->size(), 2u);
  EXPECT_THROW(matcher_->rebound(SubscriptionId{1}, preds({"y > 2 * t"})),
               std::invalid_argument);
  EXPECT_EQ(matcher_->match(parse_publication("y = 4")).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherKinds,
                         ::testing::Values(MatcherKind::kBruteForce, MatcherKind::kCounting),
                         [](const auto& info) {
                           switch (info.param) {
                             case MatcherKind::kBruteForce: return "BruteForce";
                             case MatcherKind::kCounting: return "Counting";
                           }
                           return "unknown";
                         });

TEST(CountingMatcher, PredicateCountTracked) {
  CountingMatcher m;
  m.add(SubscriptionId{1}, preds({"x > 0", "y < 3"}));
  EXPECT_EQ(m.predicate_count(), 2u);
  m.remove(SubscriptionId{1});
  EXPECT_EQ(m.predicate_count(), 0u);
}

}  // namespace
}  // namespace evps
