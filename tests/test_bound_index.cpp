// PagedBoundIndex unit tests: agreement with a reference sorted multiset
// under randomized insert/erase/scan workloads, page-split/page-drain edge
// cases and the IEEE corner cases the ordering contract promises (±inf,
// -0.0; NaN is rejected by contract and never inserted).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "matching/bound_index.hpp"

namespace evps {
namespace {

using Slot = PagedBoundIndex::Slot;
struct Entry {
  double bound;
  Slot slot;
};

/// Reference model: flat vector kept sorted by (bound, slot).
struct Reference {
  std::vector<Entry> entries;

  static bool less(const Entry& a, const Entry& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.slot < b.slot;
  }

  void insert(double bound, Slot slot) {
    const Entry e{bound, slot};
    entries.insert(std::upper_bound(entries.begin(), entries.end(), e, less), e);
  }

  bool erase(double bound, Slot slot) {
    const auto it = std::find_if(entries.begin(), entries.end(), [&](const Entry& e) {
      return e.bound == bound && e.slot == slot;
    });
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }

  [[nodiscard]] std::vector<Slot> below(double v, bool inclusive) const {
    std::vector<Slot> out;
    for (const auto& e : entries) {
      if (inclusive ? e.bound <= v : e.bound < v) out.push_back(e.slot);
    }
    return out;
  }

  [[nodiscard]] std::vector<Slot> above(double v, bool inclusive) const {
    std::vector<Slot> out;
    for (const auto& e : entries) {
      if (inclusive ? e.bound >= v : e.bound > v) out.push_back(e.slot);
    }
    return out;
  }
};

std::vector<Slot> collect_below(const PagedBoundIndex& idx, double v, bool inclusive) {
  std::vector<Slot> out;
  idx.visit_below(v, inclusive, [&](Slot s) { out.push_back(s); });
  return out;
}

std::vector<Slot> collect_above(const PagedBoundIndex& idx, double v, bool inclusive) {
  std::vector<Slot> out;
  idx.visit_above(v, inclusive, [&](Slot s) { out.push_back(s); });
  return out;
}

void expect_agrees(const PagedBoundIndex& idx, const Reference& ref, double v) {
  for (const bool inclusive : {false, true}) {
    EXPECT_EQ(collect_below(idx, v, inclusive), ref.below(v, inclusive)) << "v=" << v;
    EXPECT_EQ(collect_above(idx, v, inclusive), ref.above(v, inclusive)) << "v=" << v;
  }
}

TEST(PagedBoundIndex, EmptyIndexScansNothing) {
  PagedBoundIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(collect_below(idx, 0.0, true).empty());
  EXPECT_TRUE(collect_above(idx, 0.0, true).empty());
  EXPECT_FALSE(idx.erase(1.0, 1));
}

TEST(PagedBoundIndex, RandomInsertEraseScanAgreesWithReference) {
  Rng rng{7};
  PagedBoundIndex idx;
  Reference ref;
  for (int op = 0; op < 20000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.55 || ref.entries.empty()) {
      // Small value domain so duplicate bounds (and cross-page runs of the
      // same bound) are common.
      const double bound = static_cast<double>(rng.uniform_int(-40, 40)) / 4.0;
      const auto slot = static_cast<Slot>(rng.uniform_int(0, 5000));
      idx.insert(bound, slot);
      ref.insert(bound, slot);
    } else if (roll < 0.8) {
      const auto& victim = ref.entries[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ref.entries.size()) - 1))];
      const double bound = victim.bound;
      const Slot slot = victim.slot;
      EXPECT_TRUE(idx.erase(bound, slot));
      EXPECT_TRUE(ref.erase(bound, slot));
    } else {
      expect_agrees(idx, ref, static_cast<double>(rng.uniform_int(-44, 44)) / 4.0);
    }
    ASSERT_EQ(idx.size(), ref.entries.size());
  }
  // Drain completely through the index's own view.
  std::vector<Entry> all;
  idx.visit_all([&](double b, Slot s) { all.push_back(Entry{b, s}); });
  ASSERT_EQ(all.size(), ref.entries.size());
  for (const auto& e : all) EXPECT_TRUE(idx.erase(e.bound, e.slot));
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.page_count(), 0u);
}

TEST(PagedBoundIndex, SplitsUnderSequentialAndReverseInsertion) {
  for (const bool reverse : {false, true}) {
    PagedBoundIndex idx;
    const int n = 3000;  // ~12 pages
    for (int i = 0; i < n; ++i) {
      const int k = reverse ? n - 1 - i : i;
      idx.insert(static_cast<double>(k), static_cast<Slot>(k));
    }
    EXPECT_GT(idx.page_count(), 1u);
    std::vector<Entry> all;
    idx.visit_all([&](double b, Slot s) { all.push_back(Entry{b, s}); });
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)].bound, static_cast<double>(i));
    }
    EXPECT_EQ(collect_above(idx, 1499.5, false).size(), 1500u);
    EXPECT_EQ(collect_below(idx, 1499.5, false).size(), 1500u);
  }
}

TEST(PagedBoundIndex, EqualBoundRunSpanningPagesScansExactly) {
  PagedBoundIndex idx;
  Reference ref;
  // 1000 entries of the same bound forces the run across multiple pages.
  for (Slot s = 0; s < 1000; ++s) {
    idx.insert(5.0, s);
    ref.insert(5.0, s);
  }
  for (Slot s = 0; s < 300; ++s) {
    idx.insert(4.0, s);
    ref.insert(4.0, s);
    idx.insert(6.0, s);
    ref.insert(6.0, s);
  }
  for (const double v : {3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5}) expect_agrees(idx, ref, v);
  // Erase from the middle of the equal run.
  for (Slot s = 200; s < 800; ++s) {
    ASSERT_TRUE(idx.erase(5.0, s));
    ref.erase(5.0, s);
  }
  for (const double v : {4.5, 5.0, 5.5}) expect_agrees(idx, ref, v);
}

TEST(PagedBoundIndex, InfinityAndNegativeZeroOrdering) {
  PagedBoundIndex idx;
  Reference ref;
  const double inf = std::numeric_limits<double>::infinity();
  const double entries[] = {-inf, -1.0, -0.0, 0.0, 1.0, inf};
  Slot slot = 0;
  for (const double b : entries) {
    idx.insert(b, slot);
    ref.insert(b, slot);
    ++slot;
  }
  for (const double v : {-inf, -1.0, -0.0, 0.0, 0.5, 1.0, inf}) expect_agrees(idx, ref, v);
  // -0.0 and 0.0 are one equivalence class: either spelling erases either
  // entry (slots disambiguate).
  EXPECT_TRUE(idx.erase(0.0, 2));   // entry was inserted as -0.0
  EXPECT_TRUE(idx.erase(-0.0, 3));  // entry was inserted as 0.0
  EXPECT_TRUE(idx.erase(inf, 5));
  EXPECT_TRUE(idx.erase(-inf, 0));
  EXPECT_EQ(idx.size(), 2u);
}

}  // namespace
}  // namespace evps
