// Unit tests for the covering analysis (analysis/covering.hpp) and the
// incremental covering forest (analysis/covering_index.hpp): ValueSet domain
// operations, hand-picked covers() verdicts, and index add/remove life cycle
// including demotion, promotion and transitivity re-attachment.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/covering.hpp"
#include "analysis/covering_index.hpp"
#include "common/sim_time.hpp"
#include "message/codec.hpp"

namespace evps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

Subscription make_sub(std::uint64_t id, const std::string& text) {
  Subscription sub = parse_subscription(text);
  sub.set_id(SubscriptionId{id});
  return sub;
}

// --- ValueSet ---------------------------------------------------------------

TEST(ValueSet, UniverseAdmitsEverything) {
  const ValueSet u = ValueSet::universe();
  EXPECT_TRUE(u.admits_num(0.0));
  EXPECT_TRUE(u.admits_num(-kInf));
  EXPECT_TRUE(u.admits_num(kInf));
  EXPECT_TRUE(u.admits_string("abc"));
  EXPECT_TRUE(u.nan);
  EXPECT_FALSE(u.empty());
}

TEST(ValueSet, NothingAdmitsNothing) {
  const ValueSet n = ValueSet::nothing();
  EXPECT_FALSE(n.admits_num(0.0));
  EXPECT_FALSE(n.admits_string(""));
  EXPECT_TRUE(n.empty());
}

TEST(ValueSet, OpenEndpointsExcludeBoundary) {
  ValueSet s = ValueSet::universe();
  s.lo = 1.0;
  s.hi = 2.0;
  s.lo_open = true;
  s.hi_open = false;
  EXPECT_FALSE(s.admits_num(1.0));
  EXPECT_TRUE(s.admits_num(1.5));
  EXPECT_TRUE(s.admits_num(2.0));
  EXPECT_FALSE(s.admits_num(2.5));
}

TEST(ValueSet, ExclusionsCarveOutPoints) {
  ValueSet s = ValueSet::universe();
  s.excluded_nums.push_back(5.0);
  s.excluded_strs.push_back("gone");
  EXPECT_FALSE(s.admits_num(5.0));
  EXPECT_TRUE(s.admits_num(5.1));
  EXPECT_FALSE(s.admits_string("gone"));
  EXPECT_TRUE(s.admits_string("here"));
}

TEST(ValueSet, IntersectTightensBothSides) {
  ValueSet a = ValueSet::universe();
  a.lo = 0.0;
  a.hi = 10.0;
  ValueSet b = ValueSet::universe();
  b.lo = 5.0;
  b.hi = 20.0;
  b.lo_open = true;
  b.nan = false;
  a.intersect(b);
  EXPECT_EQ(a.lo, 5.0);
  EXPECT_TRUE(a.lo_open);
  EXPECT_EQ(a.hi, 10.0);
  EXPECT_FALSE(a.nan);
}

TEST(ValueSet, IntersectStringsOneWithExclusion) {
  ValueSet one = ValueSet::universe();
  one.strings = ValueSet::Strings::kOne;
  one.str = "IBM";
  ValueSet excl = ValueSet::universe();
  excl.excluded_strs.push_back("IBM");
  one.intersect(excl);
  EXPECT_FALSE(one.admits_string("IBM"));
  EXPECT_FALSE(one.admits_string("MSFT"));
}

TEST(ValueSet, SubsetOfRespectsOpenness) {
  ValueSet outer = ValueSet::universe();
  outer.lo = 0.0;
  outer.hi = 1.0;
  ValueSet inner = outer;
  EXPECT_TRUE(subset_of(outer, inner));
  // Inner open at an endpoint the outer includes: not a subset.
  inner.hi_open = true;
  EXPECT_FALSE(subset_of(outer, inner));
  // Outer open there too: subset again.
  outer.hi_open = true;
  EXPECT_TRUE(subset_of(outer, inner));
}

TEST(ValueSet, SubsetOfChecksNanAndExclusions) {
  ValueSet outer = ValueSet::universe();
  ValueSet inner = ValueSet::universe();
  inner.nan = false;
  EXPECT_FALSE(subset_of(outer, inner));  // outer admits NaN, inner does not
  outer.nan = false;
  EXPECT_TRUE(subset_of(outer, inner));
  inner.excluded_nums.push_back(3.0);
  EXPECT_FALSE(subset_of(outer, inner));  // outer still admits 3.0
  outer.excluded_nums.push_back(3.0);
  EXPECT_TRUE(subset_of(outer, inner));
}

// --- covers(), hand-picked --------------------------------------------------

struct CoversTest : ::testing::Test {
  VariableRegistry reg;

  void SetUp() override {
    reg.declare_range("cv_load", 0.0, 1.0);
    reg.set("cv_load", 0.5, SimTime::zero());
    reg.declare_range("cv_unset", 0.0, 1.0);  // declared but never set
  }

  CoverVerdict check(const std::string& a, const std::string& b) {
    return covers(make_sub(1, a), make_sub(2, b), reg);
  }
};

TEST_F(CoversTest, StaticIntervalContainment) {
  EXPECT_EQ(check("x >= 0; x <= 100", "x >= 10; x <= 20"), CoverVerdict::kCovers);
  EXPECT_EQ(check("x >= 10; x <= 20", "x >= 0; x <= 100"), CoverVerdict::kUnknown);
  EXPECT_EQ(check("x > 10", "x >= 11"), CoverVerdict::kCovers);
  EXPECT_EQ(check("x > 10", "x >= 10"), CoverVerdict::kUnknown);  // 10 matches B only
}

TEST_F(CoversTest, IdenticalSubscriptionsCoverEachOther) {
  EXPECT_EQ(check("x >= 1; x <= 2; y = 7", "x >= 1; x <= 2; y = 7"), CoverVerdict::kCovers);
}

TEST_F(CoversTest, CovererAttrsMustBeSubsetOfCoverees) {
  // A constrains y, B does not: a publication {y: 999, x: 15} matches B only.
  EXPECT_EQ(check("x >= 0; x <= 100; y <= 5", "x >= 10; x <= 20"), CoverVerdict::kUnknown);
  // The other containment direction is fine: B may constrain extra attrs.
  EXPECT_EQ(check("x >= 0; x <= 100", "x >= 10; x <= 20; y <= 5"), CoverVerdict::kCovers);
}

TEST_F(CoversTest, EvolvingCovereeUsesEnvelope) {
  // B's bound lives in [200, 300] for cv_load in [0, 1]: inside A's [0, 500].
  EXPECT_EQ(check("x >= 0; x <= 500", "x >= 50; x <= 200 + 100 * cv_load"),
            CoverVerdict::kCovers);
  // Envelope reaches 600: not provably inside.
  EXPECT_EQ(check("x >= 0; x <= 500", "x >= 50; x <= 200 + 400 * cv_load"),
            CoverVerdict::kUnknown);
}

TEST_F(CoversTest, EvolvingCovererUsesGuaranteedSide) {
  // A admits x up to the envelope minimum of its bound (200 at load = 0);
  // outward 1-ulp rounding makes the exact endpoint unprovable, but any
  // strictly smaller range is guaranteed.
  EXPECT_EQ(check("x <= 200 + 100 * cv_load", "x >= 0; x <= 199"), CoverVerdict::kCovers);
  // 250 is only admitted for load >= 0.5: not guaranteed.
  EXPECT_EQ(check("x <= 200 + 100 * cv_load", "x >= 0; x <= 250"), CoverVerdict::kUnknown);
}

TEST_F(CoversTest, TimeDependentCovererFailsClosed) {
  // x <= 5 + t admits [<= 5] at t = 0 and more later; only the t = 0 floor
  // (minus outward rounding) is guaranteed at every instant.
  EXPECT_EQ(check("x <= 5 + t", "x >= 0; x <= 4"), CoverVerdict::kCovers);
  EXPECT_EQ(check("x <= 5 + t", "x >= 0; x <= 6"), CoverVerdict::kUnknown);
}

TEST_F(CoversTest, UnsetVariableCovererNeverCovers) {
  // cv_unset has no value: A's bound is unresolvable today (the predicate
  // fails closed at match time), so A must not claim to cover anything.
  EXPECT_EQ(check("x <= 500 + cv_unset", "x >= 0; x <= 100"), CoverVerdict::kUnknown);
  // As a coveree the unset variable only widens the outer envelope — its
  // declared range [0, 1] still bounds it, so covering stays provable.
  EXPECT_EQ(check("x >= -10000; x <= 10000", "x >= 0; x <= 100 + cv_unset"),
            CoverVerdict::kCovers);
}

TEST_F(CoversTest, StringEqualityAndExclusion) {
  EXPECT_EQ(check("sym != 'MSFT'", "sym = 'IBM'"), CoverVerdict::kCovers);
  EXPECT_EQ(check("sym != 'IBM'", "sym = 'IBM'"), CoverVerdict::kUnknown);
  EXPECT_EQ(check("sym = 'IBM'", "sym = 'IBM'; price >= 10"), CoverVerdict::kCovers);
  EXPECT_EQ(check("sym = 'IBM'", "sym != 'MSFT'"), CoverVerdict::kUnknown);
}

TEST_F(CoversTest, NotEqualsNumericExclusion) {
  EXPECT_EQ(check("x != 5", "x >= 10; x <= 20"), CoverVerdict::kCovers);
  EXPECT_EQ(check("x != 15", "x >= 10; x <= 20"), CoverVerdict::kUnknown);
}

TEST_F(CoversTest, IntsFromTwoToThe53DoNotCompareAsDoubles) {
  // 2^53 + 1 rounds to the double 2^53, yet the int publication 2^53 + 1
  // matches `x <= 2^53 + 1` and not `x <= 2^53`: no covering.
  const Predicate a_pred = parse_predicate("x <= 9007199254740992");
  const Predicate b_pred = parse_predicate("x <= 9007199254740993");
  const Value pub{std::int64_t{9007199254740993}};
  ASSERT_TRUE(b_pred.matches(pub));
  ASSERT_FALSE(a_pred.matches(pub));
  EXPECT_EQ(check("x <= 9007199254740992", "x <= 9007199254740993"), CoverVerdict::kUnknown);
  // Below 2^53 every int is its own double, and covering stays provable.
  EXPECT_EQ(check("x <= 9007199254740991", "x <= 9007199254740990"), CoverVerdict::kCovers);
}

TEST_F(CoversTest, NanConstantNeverCoversNumericRange) {
  const double nan = kNan;
  Subscription a;
  a.set_id(SubscriptionId{1});
  a.add(Predicate{"x", RelOp::kLe, Value{nan}});  // matches nothing
  EXPECT_EQ(covers(a, make_sub(2, "x >= 0; x <= 1"), reg), CoverVerdict::kUnknown);
}

// --- CoveringIndex ----------------------------------------------------------

struct CoveringIndexTest : ::testing::Test {
  VariableRegistry reg;
  CoveringIndex index;

  void SetUp() override {
    reg.declare_range("ci_load", 0.0, 1.0);
    reg.set("ci_load", 0.5, SimTime::zero());
  }

  CoveringIndex::AddResult add(std::uint64_t id, const std::string& text) {
    return index.add(SubscriptionId{id}, summarize(make_sub(id, text), reg));
  }
};

TEST_F(CoveringIndexTest, FirstSubscriptionBecomesRoot) {
  const auto r = add(1, "x >= 0; x <= 100");
  EXPECT_FALSE(r.parent.valid());
  EXPECT_TRUE(r.demoted.empty());
  EXPECT_TRUE(index.is_root(SubscriptionId{1}));
  EXPECT_EQ(index.root_count(), 1u);
}

TEST_F(CoveringIndexTest, DuplicateAddThrowsWithoutMutatingTheForest) {
  add(1, "x >= 0; x <= 100");
  add(2, "x >= 10; x <= 20");
  EXPECT_THROW(add(1, "x >= 5; x <= 50"), std::invalid_argument);
  EXPECT_THROW(add(2, "x >= 10; x <= 20"), std::invalid_argument);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.root_count(), 1u);
  EXPECT_EQ(index.root_of(SubscriptionId{2}), SubscriptionId{1});
  EXPECT_EQ(index.children_of(SubscriptionId{1}).size(), 1u);
}

TEST_F(CoveringIndexTest, CoveredSubscriptionAttachesAsChild) {
  add(1, "x >= 0; x <= 100");
  const auto r = add(2, "x >= 10; x <= 20");
  EXPECT_EQ(r.parent, SubscriptionId{1});
  EXPECT_FALSE(index.is_root(SubscriptionId{2}));
  EXPECT_EQ(index.root_of(SubscriptionId{2}), SubscriptionId{1});
  EXPECT_EQ(index.root_count(), 1u);
  EXPECT_EQ(index.size(), 2u);
}

TEST_F(CoveringIndexTest, WiderSubscriptionDemotesExistingRoots) {
  add(1, "x >= 10; x <= 20");
  add(2, "x >= 40; x <= 50");
  const auto r = add(3, "x >= 0; x <= 100");
  EXPECT_FALSE(r.parent.valid());
  ASSERT_EQ(r.demoted.size(), 2u);
  EXPECT_TRUE(index.is_root(SubscriptionId{3}));
  EXPECT_EQ(index.root_of(SubscriptionId{1}), SubscriptionId{3});
  EXPECT_EQ(index.root_of(SubscriptionId{2}), SubscriptionId{3});
  EXPECT_EQ(index.root_count(), 1u);
}

TEST_F(CoveringIndexTest, TransitivityReattachesGrandchildren) {
  add(1, "x >= 10; x <= 20");        // root
  add(2, "x >= 12; x <= 15");        // child of 1
  const auto r = add(3, "x >= 0; x <= 100");  // demotes 1; 2 re-attaches to 3
  ASSERT_EQ(r.demoted.size(), 1u);
  EXPECT_EQ(r.demoted[0], SubscriptionId{1});
  EXPECT_EQ(index.root_of(SubscriptionId{2}), SubscriptionId{3});
  EXPECT_EQ(index.children_of(SubscriptionId{3}).size(), 2u);
  EXPECT_TRUE(index.children_of(SubscriptionId{1}).empty());
}

TEST_F(CoveringIndexTest, RemoveChildIsSilent) {
  add(1, "x >= 0; x <= 100");
  add(2, "x >= 10; x <= 20");
  const auto r = index.remove(SubscriptionId{2});
  EXPECT_TRUE(r.promoted.empty());
  EXPECT_FALSE(index.contains(SubscriptionId{2}));
  EXPECT_TRUE(index.children_of(SubscriptionId{1}).empty());
}

TEST_F(CoveringIndexTest, RemoveRootPromotesUncoveredChildren) {
  add(1, "x >= 0; x <= 100");
  add(2, "x >= 10; x <= 20");
  add(3, "x >= 30; x <= 40");
  const auto r = index.remove(SubscriptionId{1});
  ASSERT_EQ(r.promoted.size(), 2u);
  EXPECT_TRUE(index.is_root(SubscriptionId{2}));
  EXPECT_TRUE(index.is_root(SubscriptionId{3}));
  EXPECT_EQ(index.root_count(), 2u);
}

TEST_F(CoveringIndexTest, RemoveRootReattachesToSurvivingCoverer) {
  add(1, "x >= 0; x <= 100");
  add(2, "x >= 0; x <= 50");   // child of 1
  add(3, "x >= 10; x <= 20");  // child of 1
  const auto r = index.remove(SubscriptionId{1});
  // 2 gets promoted (nothing covers it); 3 is offered to the freshly
  // promoted 2 and re-attaches silently — only one re-dissemination.
  ASSERT_EQ(r.promoted.size(), 1u);
  EXPECT_EQ(r.promoted[0], SubscriptionId{2});
  EXPECT_EQ(index.root_of(SubscriptionId{3}), SubscriptionId{2});
  EXPECT_EQ(index.root_count(), 1u);
}

TEST_F(CoveringIndexTest, EvolvingChildUnderStaticRoot) {
  add(1, "x >= 0; x <= 500");
  const auto r = add(2, "[tt=0.5] x >= 50; x <= 200 + 100 * ci_load");
  EXPECT_EQ(r.parent, SubscriptionId{1});
}

TEST_F(CoveringIndexTest, DisjointAttributesStayIndependentRoots) {
  add(1, "x >= 0; x <= 100");
  add(2, "y >= 0; y <= 100");
  EXPECT_EQ(index.root_count(), 2u);
  EXPECT_TRUE(index.is_root(SubscriptionId{1}));
  EXPECT_TRUE(index.is_root(SubscriptionId{2}));
}

TEST_F(CoveringIndexTest, StatsCountPairAnalyses) {
  add(1, "x >= 0; x <= 100");
  add(2, "x >= 10; x <= 20");
  EXPECT_GE(index.stats().pairs, 1u);
  EXPECT_GE(index.stats().covered, 1u);
}

}  // namespace
}  // namespace evps
