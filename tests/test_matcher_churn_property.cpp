// Churn property suite: randomized add/remove/rebound/match sequences with
// heavy subscription-id reuse, duplicate identical predicates, equal bounds
// shared across subscriptions, mixed string/numeric attributes, IEEE
// specials (NaN, ±inf, −0.0) and ints beyond 2^53 in both operands and
// values. The counting matcher must agree exactly with the brute-force
// oracle (whose rebound is remove + add) throughout, and removing every
// subscription must leave the indexes physically empty (predicate_count()
// and indexed_entry_count() both 0) — the regression surface for the
// duplicate-predicate index leak in CountingMatcher::remove, the NaN
// unindexing leaks, and entries rebound leaves behind.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "matching/brute_force_matcher.hpp"
#include "matching/counting_matcher.hpp"

namespace evps {
namespace {

const char* kAttributes[] = {"x", "y", "price", "symbol"};

// A deliberately tiny value domain so different subscriptions frequently
// share the exact same bound (stressing equal_range removal) and duplicate
// predicates arise even before we inject them explicitly.
Value small_value(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return Value{rng.uniform_int(-2, 2)};
    case 1: return Value{static_cast<double>(rng.uniform_int(-2, 2)) / 2.0};
    case 2:
      // IEEE specials, in the same tiny-domain spirit: repeated NaN bounds
      // collide constantly, stressing the quarantine and bit-class removal.
      switch (rng.uniform_int(0, 3)) {
        case 0: return Value{std::numeric_limits<double>::quiet_NaN()};
        case 1: return Value{std::numeric_limits<double>::infinity()};
        case 2: return Value{-std::numeric_limits<double>::infinity()};
        default: return Value{-0.0};
      }
    case 3: {
      // Ints just around 2^55, where neighbours share one double.
      constexpr std::int64_t kBase = std::int64_t{1} << 55;
      return Value{(rng.uniform() < 0.5 ? kBase : -kBase) + rng.uniform_int(-1, 2)};
    }
    default: return Value{std::string(1, static_cast<char>('a' + rng.uniform_int(0, 2)))};
  }
}

Predicate small_predicate(Rng& rng) {
  const auto* attr = kAttributes[rng.uniform_int(0, 3)];
  const auto op = static_cast<RelOp>(rng.uniform_int(0, 5));
  return Predicate{attr, op, small_value(rng)};
}

std::vector<Predicate> random_preds(Rng& rng) {
  std::vector<Predicate> preds;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) preds.push_back(small_predicate(rng));
  // Inject exact duplicates of already-chosen predicates half of the time.
  while (rng.uniform() < 0.5) {
    preds.push_back(preds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(preds.size()) - 1))]);
  }
  return preds;
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    pub.set(kAttributes[rng.uniform_int(0, 3)], small_value(rng));
  }
  return pub;
}

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, IndexedMatchersAgreeWithOracleUnderChurn) {
  Rng rng{GetParam()};
  BruteForceMatcher oracle;
  CountingMatcher counting;

  // A small id pool forces constant remove/re-add and rebound of the same
  // ids with fresh predicate sets: any entry leaked by a remove or left
  // behind by a rebound shows up as a false positive (or index corruption).
  constexpr std::uint64_t kPoolSize = 30;
  for (int op = 0; op < 3000; ++op) {
    const SubscriptionId id{1 + static_cast<std::uint64_t>(rng.uniform_int(0, kPoolSize - 1))};
    const double roll = rng.uniform();
    if (!oracle.contains(id)) {
      const auto preds = random_preds(rng);
      oracle.add(id, preds);
      counting.add(id, preds);
    } else if (roll < 0.35) {
      EXPECT_TRUE(oracle.remove(id));
      EXPECT_TRUE(counting.remove(id));
    } else if (roll < 0.7) {
      const auto preds = random_preds(rng);
      oracle.remove(id);
      oracle.add(id, preds);
      counting.rebound(id, preds);
    }
    if (roll >= 0.25) {
      const Publication pub = random_publication(rng);
      ASSERT_EQ(counting.match(pub), oracle.match(pub))
          << "pub " << pub.to_string() << " seed " << GetParam() << " op " << op;
    }
    ASSERT_EQ(counting.size(), oracle.size());
    ASSERT_EQ(counting.predicate_count(), counting.indexed_entry_count());
  }

  // Drain completely: the indexes must be empty, not merely unreachable.
  for (std::uint64_t i = 1; i <= kPoolSize; ++i) {
    const SubscriptionId id{i};
    EXPECT_EQ(counting.remove(id), oracle.remove(id));
  }
  EXPECT_EQ(counting.size(), 0u);
  EXPECT_EQ(counting.predicate_count(), 0u);
  EXPECT_EQ(counting.indexed_entry_count(), 0u);
  EXPECT_TRUE(counting.match(random_publication(rng)).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u, 977u, 31337u));

TEST(CountingMatcherLeak, DuplicatePredicateRemoveDoesNotLeak) {
  // Regression: `add` used to index each duplicate copy while `remove`
  // erased only one occurrence, so a removed-then-readded id inherited a
  // stale index entry and matched publications it should not.
  CountingMatcher m;
  BruteForceMatcher oracle;
  const std::vector<Predicate> dup{
      Predicate{"x", RelOp::kGe, Value{5}},
      Predicate{"x", RelOp::kGe, Value{5}},
  };
  m.add(SubscriptionId{1}, dup);
  oracle.add(SubscriptionId{1}, dup);
  EXPECT_EQ(m.match(Publication{{"x", Value{7}}}), oracle.match(Publication{{"x", Value{7}}}));

  EXPECT_TRUE(m.remove(SubscriptionId{1}));
  EXPECT_EQ(m.predicate_count(), 0u);

  // Re-add the same id with an unrelated predicate; a leaked "x >= 5" entry
  // would now produce a false positive on x-only publications.
  m.add(SubscriptionId{1}, {Predicate{"y", RelOp::kEq, Value{1}}});
  EXPECT_TRUE(m.match(Publication{{"x", Value{7}}}).empty());
  EXPECT_EQ(m.match(Publication{{"y", Value{1}}}),
            std::vector<SubscriptionId>{SubscriptionId{1}});
}

TEST(CountingMatcherLeak, DuplicatesAcrossOperatorClasses) {
  // Duplicates in every index class: equality (num + str), !=, ordered
  // string scan, and sorted bounds.
  CountingMatcher m;
  const std::vector<Predicate> preds{
      Predicate{"a", RelOp::kEq, Value{3}},      Predicate{"a", RelOp::kEq, Value{3}},
      Predicate{"s", RelOp::kEq, Value{"v"}},    Predicate{"s", RelOp::kEq, Value{"v"}},
      Predicate{"n", RelOp::kNe, Value{0}},      Predicate{"n", RelOp::kNe, Value{0}},
      Predicate{"t", RelOp::kLt, Value{"m"}},    Predicate{"t", RelOp::kLt, Value{"m"}},
      Predicate{"b", RelOp::kLe, Value{9}},      Predicate{"b", RelOp::kLe, Value{9}},
  };
  m.add(SubscriptionId{7}, preds);
  EXPECT_EQ(m.predicate_count(), 5u);  // deduplicated on add
  const Publication hitting{
      {"a", Value{3}}, {"s", Value{"v"}}, {"n", Value{1}}, {"t", Value{"c"}}, {"b", Value{4}}};
  EXPECT_EQ(m.match(hitting), std::vector<SubscriptionId>{SubscriptionId{7}});
  EXPECT_TRUE(m.remove(SubscriptionId{7}));
  EXPECT_EQ(m.predicate_count(), 0u);
  EXPECT_TRUE(m.match(hitting).empty());
}

}  // namespace
}  // namespace evps
