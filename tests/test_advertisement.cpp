#include "message/advertisement.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/summary.hpp"
#include "expr/parser.hpp"
#include "message/subscription.hpp"

namespace evps {
namespace {

/// The routing test: can a publication the advertisement covers match the
/// subscription's static predicates? (Broker::subscription_forward_targets.)
bool intersects(const Advertisement& adv, const Subscription& sub) {
  return overlaps(static_shape(adv.predicates()), static_shape(sub.predicates()));
}

Advertisement price_advert(double lo, double hi, const char* symbol = nullptr) {
  Advertisement adv{MessageId{1}, ClientId{1}, {}};
  if (symbol != nullptr) adv.add(Predicate{"symbol", RelOp::kEq, Value{symbol}});
  adv.add(Predicate{"price", RelOp::kGe, Value{lo}});
  adv.add(Predicate{"price", RelOp::kLe, Value{hi}});
  return adv;
}

Subscription price_sub(double lo, double hi, const char* symbol = nullptr) {
  Subscription sub;
  if (symbol != nullptr) sub.add(Predicate{"symbol", RelOp::kEq, Value{symbol}});
  sub.add(Predicate{"price", RelOp::kGe, Value{lo}});
  sub.add(Predicate{"price", RelOp::kLe, Value{hi}});
  return sub;
}

TEST(Advertisement, CoversRequiresAdvertisedAttributes) {
  const Advertisement adv = price_advert(10, 20, "IBM");
  Publication in_range{{"symbol", Value{"IBM"}}, {"price", Value{15.0}}};
  Publication out_of_range{{"symbol", Value{"IBM"}}, {"price", Value{25.0}}};
  Publication missing_price{{"symbol", Value{"IBM"}}};
  EXPECT_TRUE(adv.covers(in_range));
  EXPECT_FALSE(adv.covers(out_of_range));
  EXPECT_FALSE(adv.covers(missing_price));
}

TEST(Advertisement, CoversIgnoresExtraPubAttributes) {
  const Advertisement adv = price_advert(10, 20);
  Publication pub{{"price", Value{12.0}}, {"volume", Value{1000}}};
  EXPECT_TRUE(adv.covers(pub));
}

TEST(Advertisement, IntersectsOverlappingRanges) {
  const Advertisement adv = price_advert(10, 20);
  EXPECT_TRUE(intersects(adv, price_sub(15, 25)));
  EXPECT_TRUE(intersects(adv, price_sub(20, 30)));   // touching at closed bound
  EXPECT_FALSE(intersects(adv, price_sub(21, 30)));  // disjoint
  EXPECT_FALSE(intersects(adv, price_sub(1, 9)));
}

TEST(Advertisement, IntersectsOpenBoundary) {
  Advertisement adv{MessageId{1}, ClientId{1}, {}};
  adv.add(Predicate{"price", RelOp::kLt, Value{10}});
  Subscription sub;
  sub.add(Predicate{"price", RelOp::kGe, Value{10}});
  EXPECT_FALSE(intersects(adv, sub));  // (.., 10) vs [10, ..) do not meet
  Subscription sub2;
  sub2.add(Predicate{"price", RelOp::kGt, Value{9}});
  EXPECT_TRUE(intersects(adv, sub2));  // (9, 10) non-empty
}

TEST(Advertisement, StringEqualityDisjointness) {
  const Advertisement adv = price_advert(0, 100, "IBM");
  EXPECT_TRUE(intersects(adv, price_sub(10, 20, "IBM")));
  EXPECT_FALSE(intersects(adv, price_sub(10, 20, "MSFT")));
  // Subscription without a symbol constraint still intersects.
  EXPECT_TRUE(intersects(adv, price_sub(10, 20)));
}

TEST(Advertisement, UnrelatedAttributesCannotDisjoin) {
  const Advertisement adv = price_advert(10, 20);
  Subscription sub;
  sub.add(Predicate{"volume", RelOp::kGt, Value{1'000'000}});
  EXPECT_TRUE(intersects(adv, sub));  // conservative: no common attribute
}

TEST(Advertisement, EvolvingPredicatesAreUnconstrained) {
  const Advertisement adv = price_advert(10, 20);
  Subscription sub;
  sub.add(Predicate{"price", RelOp::kGe, parse_expr("1000 + t")});  // evolving
  // Even though the function currently evaluates outside the advert range,
  // evolving predicates are conservatively treated as unconstrained.
  EXPECT_TRUE(intersects(adv, sub));
}

TEST(Advertisement, EqualityPointIntersection) {
  const Advertisement adv = price_advert(10, 20);
  Subscription sub;
  sub.add(Predicate{"price", RelOp::kEq, Value{15.0}});
  EXPECT_TRUE(intersects(adv, sub));
  Subscription sub2;
  sub2.add(Predicate{"price", RelOp::kEq, Value{35.0}});
  EXPECT_FALSE(intersects(adv, sub2));
}

TEST(Advertisement, NeverFalseNegativeOnRandomRanges) {
  // Property: whenever a publication satisfies both advert and subscription,
  // the overlap check must say so.
  for (int lo = 0; lo < 20; ++lo) {
    for (int len = 0; len < 10; ++len) {
      const Advertisement adv = price_advert(lo, lo + len);
      for (int slo = 0; slo < 25; ++slo) {
        const Subscription sub = price_sub(slo, slo + 3);
        for (int p = std::max(lo, slo); p <= std::min(lo + len, slo + 3); ++p) {
          Publication pub{{"price", Value{p}}};
          if (adv.covers(pub) && sub.matches(pub)) {
            ASSERT_TRUE(intersects(adv, sub)) << lo << "+" << len << " vs " << slo;
          }
        }
      }
    }
  }
  // The same with int constants and int publications near 2^55, where
  // neighbouring ints round to one double (doubles there are 8 apart) but
  // compare exactly against each other. Strict subscription bounds are what
  // a rounded-double check gets wrong.
  constexpr std::int64_t kBase = std::int64_t{1} << 55;
  for (std::int64_t lo = -12; lo <= 12; ++lo) {
    for (std::int64_t len = 0; len < 6; ++len) {
      Advertisement adv{MessageId{1}, ClientId{1}, {}};
      adv.add(Predicate{"x", RelOp::kGe, Value{kBase + lo}});
      adv.add(Predicate{"x", RelOp::kLe, Value{kBase + lo + len}});
      for (std::int64_t slo = -14; slo <= 14; ++slo) {
        Subscription sub;
        sub.add(Predicate{"x", RelOp::kGt, Value{kBase + slo}});
        sub.add(Predicate{"x", RelOp::kLt, Value{kBase + slo + 3}});
        for (std::int64_t p = lo; p <= lo + len; ++p) {
          Publication pub{{"x", Value{kBase + p}}};
          if (adv.covers(pub) && sub.matches(pub)) {
            ASSERT_TRUE(intersects(adv, sub)) << "2^55 + " << lo << "+" << len << " vs " << slo;
          }
        }
      }
    }
  }
}

TEST(Advertisement, IntBeyondExactDoublesOverlapsStrictBound) {
  // 2^55 + 2 and 2^55 + 1 both round to the double 2^55, so comparing the
  // rounded doubles calls these disjoint; the ints compare exactly, and the
  // advertised publication matches the subscription.
  Advertisement adv{MessageId{1}, ClientId{1}, {}};
  adv.add(Predicate{"x", RelOp::kEq, Value{std::int64_t{36028797018963970}}});
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGt, Value{std::int64_t{36028797018963969}}});
  Publication pub{{"x", Value{std::int64_t{36028797018963970}}}};
  ASSERT_TRUE(adv.covers(pub));
  ASSERT_TRUE(sub.matches(pub));
  EXPECT_TRUE(intersects(adv, sub));
}

TEST(Advertisement, StringExclusionDisjoinsAdvertisedString) {
  // `!=` excludes the one string the advertisement promises.
  Advertisement adv{MessageId{1}, ClientId{1}, {}};
  adv.add(Predicate{"symbol", RelOp::kEq, Value{"IBM"}});
  Subscription excluded;
  excluded.add(Predicate{"symbol", RelOp::kNe, Value{"IBM"}});
  EXPECT_FALSE(intersects(adv, excluded));
  Subscription other;
  other.add(Predicate{"symbol", RelOp::kNe, Value{"MSFT"}});
  EXPECT_TRUE(intersects(adv, other));
}

TEST(Advertisement, StringAndNumericConstraintsDisjoin) {
  // Strings and numbers are incomparable: a string-only advertisement never
  // meets a subscription that needs a number on the same attribute.
  Advertisement adv{MessageId{1}, ClientId{1}, {}};
  adv.add(Predicate{"symbol", RelOp::kEq, Value{"IBM"}});
  Subscription numeric;
  numeric.add(Predicate{"symbol", RelOp::kGt, Value{5}});
  EXPECT_FALSE(intersects(adv, numeric));
  Publication pub{{"symbol", Value{"IBM"}}};
  ASSERT_TRUE(adv.covers(pub));
  EXPECT_FALSE(numeric.matches(pub));
}

TEST(Advertisement, ToString) {
  const Advertisement adv = price_advert(1, 2, "X");
  const auto s = adv.to_string();
  EXPECT_NE(s.find("adv{"), std::string::npos);
  EXPECT_NE(s.find("price >= 1"), std::string::npos);
}

}  // namespace
}  // namespace evps
