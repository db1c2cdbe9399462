// Non-finite operand suite: NaN, ±infinity and −0.0 as predicate constants
// and publication values.
//
// Content-based semantics (Value::compare / apply_rel_op): a comparison
// involving NaN is *incomparable* — it satisfies only kNe. The historical
// bugs covered here:
//   * NaN bounds in the sorted bound lists broke strict weak ordering, so
//     binary searches were UB and erase could remove ANOTHER subscription's
//     entry (now quarantined into the misc scan list).
//   * NaN-keyed eq_num entries leaked on remove — find(NaN) never succeeds
//     on a double-keyed hash map — leaving stale entries aimed at recycled
//     slots.
//   * A NaN *publication* value spuriously satisfied every <= / >= bound
//     (NaN degenerates lower_bound/upper_bound partitions).
//   * A `!= NaN` predicate could not be removed (Value::operator== is false
//     for NaN vs NaN), leaving a matches-everything ghost that fired for
//     whichever subscription later recycled the slot.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/rng.hpp"
#include "matching/brute_force_matcher.hpp"
#include "matching/counting_matcher.hpp"
#include "matching/sharded_matcher.hpp"

namespace evps {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

using Ids = std::vector<SubscriptionId>;

Ids hits(const Matcher& m, const Publication& pub) {
  Ids out;
  m.match(pub, out);
  return out;
}

TEST(NanBound, RemovingOneNanBoundSubscriptionLeavesOthersIntact) {
  // Two subscriptions with identical NaN bounds plus one innocent bystander:
  // under the old sorted lists the NaN entries made every binary search UB
  // and the first remove could erase the bystander's entry instead.
  CountingMatcher m;
  m.add(SubscriptionId{1}, {Predicate{"x", RelOp::kLt, Value{kNaN}}});
  m.add(SubscriptionId{2}, {Predicate{"x", RelOp::kLt, Value{kNaN}}});
  m.add(SubscriptionId{3}, {Predicate{"x", RelOp::kLt, Value{5.0}}});

  EXPECT_TRUE(m.remove(SubscriptionId{1}));
  EXPECT_TRUE(m.contains(SubscriptionId{2}));
  // The bystander still matches; the NaN-bound subscription never can.
  EXPECT_EQ(m.match(Publication{{"x", Value{1.0}}}), Ids{SubscriptionId{3}});

  EXPECT_TRUE(m.remove(SubscriptionId{2}));
  EXPECT_TRUE(m.remove(SubscriptionId{3}));
  EXPECT_EQ(m.indexed_entry_count(), 0u);
  EXPECT_EQ(m.predicate_count(), 0u);
}

// A NaN equality or kNe constant must be fully unindexed on remove; the
// recycled slot is then re-used by an unrelated subscription which must not
// inherit any stale entry.
TEST(NanEqLeak, CountingRemoveThenReuseSlot) {
  CountingMatcher m;
  m.add(SubscriptionId{1}, {Predicate{"x", RelOp::kEq, Value{kNaN}}});
  // NaN == NaN is false under content-based semantics: never matches.
  EXPECT_TRUE(hits(m, Publication{{"x", Value{kNaN}}}).empty());
  EXPECT_TRUE(hits(m, Publication{{"x", Value{3.0}}}).empty());
  EXPECT_TRUE(m.remove(SubscriptionId{1}));
  EXPECT_EQ(m.indexed_entry_count(), 0u);

  // Slot recycle: any leaked "x == NaN" entry would now reference this slot.
  m.add(SubscriptionId{2}, {Predicate{"y", RelOp::kEq, Value{1}}});
  EXPECT_TRUE(hits(m, Publication{{"x", Value{3.0}}}).empty());
  EXPECT_EQ(hits(m, Publication{{"y", Value{1}}}), Ids{SubscriptionId{2}});
  EXPECT_TRUE(m.remove(SubscriptionId{2}));
  EXPECT_EQ(m.indexed_entry_count(), 0u);
}

TEST(NanNeGhost, CountingRemoveUnindexesNeNan) {
  CountingMatcher m;
  // `x != NaN` is satisfied by EVERY x value (incomparable => kNe holds).
  m.add(SubscriptionId{1}, {Predicate{"x", RelOp::kNe, Value{kNaN}}});
  EXPECT_EQ(hits(m, Publication{{"x", Value{1.0}}}), Ids{SubscriptionId{1}});
  EXPECT_EQ(hits(m, Publication{{"x", Value{kNaN}}}), Ids{SubscriptionId{1}});
  EXPECT_EQ(hits(m, Publication{{"x", Value{"s"}}}), Ids{SubscriptionId{1}});

  // Equality-based unindexing used to skip this entry (NaN != NaN), leaving
  // a matches-everything ghost aimed at the recycled slot.
  EXPECT_TRUE(m.remove(SubscriptionId{1}));
  EXPECT_EQ(m.indexed_entry_count(), 0u);
  m.add(SubscriptionId{9}, {Predicate{"y", RelOp::kEq, Value{1}}});
  EXPECT_TRUE(hits(m, Publication{{"x", Value{1.0}}}).empty());
  EXPECT_EQ(hits(m, Publication{{"y", Value{1}}}), Ids{SubscriptionId{9}});
}

TEST(NanPublication, SatisfiesOnlyNePredicates) {
  // A NaN publication value used to fall through the bound-list binary
  // searches with a NaN pivot, spuriously hitting every <= / >= bound.
  CountingMatcher counting;
  BruteForceMatcher oracle;
  const std::vector<std::pair<RelOp, double>> preds{
      {RelOp::kLt, 5.0}, {RelOp::kLe, 5.0}, {RelOp::kGt, 5.0},
      {RelOp::kGe, 5.0}, {RelOp::kEq, 5.0}, {RelOp::kNe, 5.0},
  };
  std::uint64_t id = 1;
  for (const auto& [op, bound] : preds) {
    const std::vector<Predicate> p{Predicate{"x", op, Value{bound}}};
    oracle.add(SubscriptionId{id}, p);
    counting.add(SubscriptionId{id}, p);
    ++id;
  }
  const Publication pub{{"x", Value{kNaN}}};
  const Ids expected = oracle.match(pub);
  EXPECT_EQ(expected, Ids{SubscriptionId{6}});  // only x != 5
  EXPECT_EQ(counting.match(pub), expected);
}

TEST(NonFiniteAgreement, ExhaustiveOperatorBoundValueCross) {
  // Every operator crossed with every special bound, matched against every
  // special publication value: the indexed matchers must agree with the
  // oracle cell by cell.
  const double specials[] = {-kInf, -1.5, -0.0, 0.0, 1.5, kInf, kNaN};
  BruteForceMatcher oracle;
  CountingMatcher counting;
  std::uint64_t id = 1;
  for (int op = 0; op < 6; ++op) {
    for (const double bound : specials) {
      const std::vector<Predicate> p{
          Predicate{"x", static_cast<RelOp>(op), Value{bound}}};
      oracle.add(SubscriptionId{id}, p);
      counting.add(SubscriptionId{id}, p);
      ++id;
    }
  }
  for (const double v : specials) {
    const Publication pub{{"x", Value{v}}};
    const Ids expected = oracle.match(pub);
    ASSERT_EQ(counting.match(pub), expected) << "value " << v;
  }
  // Tear down completely: no entry may survive.
  for (std::uint64_t i = 1; i < id; ++i) EXPECT_TRUE(counting.remove(SubscriptionId{i}));
  EXPECT_EQ(counting.indexed_entry_count(), 0u);
}

TEST(NegativeZero, CrossSpellingBoundsRemoveIndependently) {
  // −0.0 and 0.0 are one ordering class; entries are disambiguated by slot,
  // so removing the −0.0-bound subscription must not disturb the 0.0 one.
  CountingMatcher m;
  m.add(SubscriptionId{1}, {Predicate{"x", RelOp::kGe, Value{-0.0}}});
  m.add(SubscriptionId{2}, {Predicate{"x", RelOp::kGe, Value{0.0}}});
  EXPECT_EQ(m.match(Publication{{"x", Value{0.0}}}),
            (Ids{SubscriptionId{1}, SubscriptionId{2}}));
  EXPECT_EQ(m.match(Publication{{"x", Value{-0.0}}}),
            (Ids{SubscriptionId{1}, SubscriptionId{2}}));
  EXPECT_TRUE(m.remove(SubscriptionId{1}));
  EXPECT_EQ(m.match(Publication{{"x", Value{0.0}}}), Ids{SubscriptionId{2}});
  EXPECT_TRUE(m.remove(SubscriptionId{2}));
  EXPECT_EQ(m.indexed_entry_count(), 0u);
}

// --- rebound agreement ---------------------------------------------------

Value random_value(Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return Value{rng.uniform_int(-5, 5)};
    case 1: return Value{rng.uniform(-5.0, 5.0)};
    case 2: return Value{kNaN};
    case 3: return Value{kInf};
    case 4: return Value{-kInf};
    case 5: return Value{-0.0};
    // Ints sharing the double 2^55: a drifted version keeps the predicate's
    // double but not its exact constant.
    case 6: return Value{(std::int64_t{1} << 55) + rng.uniform_int(-1, 2)};
    default: return Value{std::string(1, static_cast<char>('a' + rng.uniform_int(0, 2)))};
  }
}

const char* const kAttrs[] = {"x", "y", "price"};

std::vector<Predicate> random_preds(Rng& rng) {
  std::vector<Predicate> preds;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    preds.push_back(Predicate{kAttrs[rng.uniform_int(0, 2)],
                              static_cast<RelOp>(rng.uniform_int(0, 5)), random_value(rng)});
  }
  // An exact duplicate a third of the time.
  if (rng.uniform() < 0.33) preds.push_back(preds.front());
  return preds;
}

/// The next version of `preds`: the same attributes and operators with fresh
/// constants, the shape of an evolution (ordered numeric bounds move).
std::vector<Predicate> drifted(const std::vector<Predicate>& preds, Rng& rng) {
  std::vector<Predicate> out;
  for (const auto& p : preds) out.emplace_back(p.attribute(), p.op(), random_value(rng));
  return out;
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) pub.set(kAttrs[rng.uniform_int(0, 2)], random_value(rng));
  return pub;
}

std::size_t indexed_entries(const ShardedMatcher& m) {
  std::size_t n = 0;
  for (std::size_t s = 0; s < m.shard_count(); ++s) {
    n += dynamic_cast<const CountingMatcher&>(m.shard(s)).indexed_entry_count();
  }
  return n;
}

TEST(Rebound, AgreesWithRemoveThenAddIncludingSharded) {
  // rebound must be observationally identical to remove + add, for the plain
  // counting matcher and through the sharded forwarding, whether the version
  // drifts (same shape) or changes shape, with IEEE specials, strings and
  // duplicate predicates on both sides.
  Rng rng{4242};
  BruteForceMatcher oracle;  // remove + add
  CountingMatcher counting;
  ShardedMatcher sharded{MatcherKind::kCounting, 4};
  std::map<SubscriptionId, std::vector<Predicate>> live;

  constexpr std::uint64_t kIds = 150;
  for (std::uint64_t i = 1; i <= kIds; i += 2) {
    const SubscriptionId id{i};
    live[id] = random_preds(rng);
    oracle.add(id, live[id]);
    counting.add(id, live[id]);
    sharded.add(id, live[id]);
  }
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 40; ++op) {
      const SubscriptionId id{1 + static_cast<std::uint64_t>(rng.uniform_int(0, kIds - 1))};
      const double roll = rng.uniform();
      if (roll < 0.1) {
        const bool present = oracle.remove(id);
        EXPECT_EQ(counting.remove(id), present);
        EXPECT_EQ(sharded.remove(id), present);
        live.erase(id);
        continue;
      }
      // Unknown ids are installed; present ones drift or change shape.
      const auto it = live.find(id);
      auto version = it != live.end() && roll < 0.7 ? drifted(it->second, rng) : random_preds(rng);
      oracle.remove(id);
      oracle.add(id, version);
      counting.rebound(id, version);
      sharded.rebound(id, version);
      live[id] = std::move(version);
    }
    for (int p = 0; p < 25; ++p) {
      const Publication pub = random_publication(rng);
      const Ids expected = oracle.match(pub);
      ASSERT_EQ(hits(counting, pub), expected) << "round " << round << " pub " << pub.to_string();
      ASSERT_EQ(hits(sharded, pub), expected) << "round " << round << " pub " << pub.to_string();
    }
    ASSERT_EQ(counting.size(), oracle.size());
    ASSERT_EQ(sharded.size(), oracle.size());
  }

  // Drain through remove(): rebound indexes must empty out exactly.
  for (std::uint64_t i = 1; i <= kIds; ++i) {
    const SubscriptionId id{i};
    const bool present = oracle.remove(id);
    EXPECT_EQ(counting.remove(id), present);
    EXPECT_EQ(sharded.remove(id), present);
  }
  EXPECT_EQ(counting.indexed_entry_count(), 0u);
  EXPECT_EQ(counting.predicate_count(), 0u);
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_EQ(indexed_entries(sharded), 0u);
}

TEST(Rebound, DuplicatesEmptyVersionsAndSpecialBounds) {
  CountingMatcher m;
  const SubscriptionId id{7};
  m.rebound(id, {Predicate{"x", RelOp::kGt, Value{1}}, Predicate{"x", RelOp::kGt, Value{1}}});
  EXPECT_EQ(m.predicate_count(), 1u);  // deduplicated like add
  EXPECT_EQ(m.match(Publication{{"x", Value{2}}}), Ids{id});
  // An ordered bound moving to -0.0, -inf and NaN (quarantined) and back.
  for (const double bound : {-0.0, -kInf, kNaN, 3.0}) {
    m.rebound(id, {Predicate{"x", RelOp::kGt, Value{bound}}, Predicate{"y", RelOp::kNe, Value{bound}}});
    BruteForceMatcher oracle;
    oracle.add(id, {Predicate{"x", RelOp::kGt, Value{bound}}, Predicate{"y", RelOp::kNe, Value{bound}}});
    for (const double v : {-kInf, -1.0, -0.0, 0.0, 2.0, 4.0, kInf, kNaN}) {
      const Publication pub{{"x", Value{v}}, {"y", Value{v}}};
      ASSERT_EQ(m.match(pub), oracle.match(pub)) << bound << " " << v;
    }
  }
  // An empty version matches nothing, like an empty subscription.
  m.rebound(id, {});
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.match(Publication{{"x", Value{4}}, {"y", Value{1}}}).empty());
  EXPECT_EQ(m.indexed_entry_count(), 0u);
  m.rebound(id, {Predicate{"x", RelOp::kLt, Value{5}}});
  EXPECT_EQ(m.match(Publication{{"x", Value{4}}}), Ids{id});
  EXPECT_TRUE(m.remove(id));
  EXPECT_EQ(m.indexed_entry_count(), 0u);
  EXPECT_EQ(m.predicate_count(), 0u);
}

}  // namespace
}  // namespace evps
