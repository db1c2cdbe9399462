// Paged interval index over (bound, slot) entries — the sorted structure
// behind CountingMatcher's four per-attribute operator lists.
//
// Layout is a two-level B+-tree: leaf pages hold up to kPageCapacity entries
// as SoA arrays (bounds and slots in separate contiguous vectors, kept sorted
// by (bound, slot)), and a flat router stores each page's maximum key. An
// insert or erase binary-searches the router (O(log P)), then shifts within
// one small page — O(log n) search plus a constant-bounded memmove — instead
// of shifting the whole population like the flat sorted vectors it replaced.
// Page splits/removals shift the router, but the router is ~n/kPageCapacity
// entries and a split happens at most once per kPageCapacity/2 inserts, so
// the amortised cost stays sublinear all the way to millions of entries.
//
// The range scans match() needs (`all bounds < v`, `all bounds >= v`, ...)
// walk whole pages through the SoA slot arrays — contiguous, branch-free
// inner loops — and touch at most one partial page at the boundary.
//
// Ordering contract: keys are (bound, slot) lexicographic with doubles under
// IEEE `<`. NaN bounds are REJECTED (assert) — they have no total order and
// would corrupt any sorted structure; callers must quarantine NaN-constant
// predicates into their scan paths (they can never match anyway). -0.0 and
// 0.0 compare equal and are disambiguated by slot; equal keys of one slot
// (the int 2 and the double 2.0 under one operator) are interchangeable, so
// erasing either one is exact.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace evps {

class PagedBoundIndex {
 public:
  using Slot = std::uint32_t;

  /// Entries per leaf page. 256 keeps a page's bound array at 2 KiB (half an
  /// L1 way) so the partial-page binary search and the shift on insert stay
  /// in cache.
  static constexpr std::size_t kPageCapacity = 256;

  /// Insert one entry. `bound` must not be NaN. Duplicate (bound, slot)
  /// pairs are allowed (multiset semantics).
  void insert(double bound, Slot slot);

  /// Erase one entry matching (bound, slot); NaN-safe by precondition
  /// (NaN never enters). Returns false when no such entry exists.
  bool erase(double bound, Slot slot);

  void clear() noexcept {
    pages_.clear();
    max_bound_.clear();
    max_slot_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t page_count() const noexcept { return pages_.size(); }

  /// Visit the slot of every entry with bound < v (inclusive: bound <= v),
  /// in ascending (bound, slot) order. `v` must not be NaN.
  template <typename Fn>
  void visit_below(double v, bool inclusive, Fn&& fn) const {
    assert(!std::isnan(v));
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      const Page& page = pages_[p];
      if (inclusive ? max_bound_[p] <= v : max_bound_[p] < v) {
        for (const Slot s : page.slots) fn(s);  // whole page: contiguous SoA walk
        continue;
      }
      // Boundary page: bounds are globally non-decreasing, so everything
      // after the first violating entry violates too — visit the prefix and
      // stop.
      const auto begin = page.bounds.begin();
      const auto end = inclusive ? std::upper_bound(begin, page.bounds.end(), v)
                                 : std::lower_bound(begin, page.bounds.end(), v);
      const auto n = static_cast<std::size_t>(end - begin);
      for (std::size_t i = 0; i < n; ++i) fn(page.slots[i]);
      return;
    }
  }

  /// Visit the slot of every entry with bound > v (inclusive: bound >= v),
  /// in ascending (bound, slot) order. `v` must not be NaN.
  template <typename Fn>
  void visit_above(double v, bool inclusive, Fn&& fn) const {
    assert(!std::isnan(v));
    // First page that can contain a qualifying entry: max bounds are
    // non-decreasing across pages, so binary search the router.
    const auto rb = max_bound_.begin();
    const auto re = max_bound_.end();
    std::size_t p = static_cast<std::size_t>(
        (inclusive ? std::lower_bound(rb, re, v) : std::upper_bound(rb, re, v)) - rb);
    if (p >= pages_.size()) return;
    {
      const Page& page = pages_[p];
      const auto begin = page.bounds.begin();
      const auto start = inclusive ? std::lower_bound(begin, page.bounds.end(), v)
                                   : std::upper_bound(begin, page.bounds.end(), v);
      const std::size_t n = page.bounds.size();
      for (auto i = static_cast<std::size_t>(start - begin); i < n; ++i) fn(page.slots[i]);
    }
    for (++p; p < pages_.size(); ++p) {
      for (const Slot s : pages_[p].slots) fn(s);
    }
  }

  /// Visit every entry in ascending order (tests/diagnostics).
  template <typename Fn>
  void visit_all(Fn&& fn) const {
    for (const Page& page : pages_) {
      for (std::size_t i = 0; i < page.bounds.size(); ++i) {
        fn(page.bounds[i], page.slots[i]);
      }
    }
  }

 private:
  struct Page {
    std::vector<double> bounds;  // sorted, parallel to slots
    std::vector<Slot> slots;
  };

  static bool key_less(double b1, Slot s1, double b2, Slot s2) noexcept {
    if (b1 != b2) return b1 < b2;
    return s1 < s2;
  }

  /// Page that owns key (bound, slot): the first page whose max key is >=
  /// the key, or the last page when the key is beyond every max.
  [[nodiscard]] std::size_t page_for(double bound, Slot slot) const noexcept;

  /// Position of the first entry in `page` with key >= (bound, slot).
  [[nodiscard]] static std::size_t lower_bound_in(const Page& page, double bound,
                                                  Slot slot) noexcept;

  void split_page(std::size_t p);
  void refresh_max(std::size_t p);

  std::vector<Page> pages_;
  // Router, SoA: max_bound_[p] / max_slot_[p] is the max key of pages_[p].
  std::vector<double> max_bound_;
  std::vector<Slot> max_slot_;
  std::size_t size_ = 0;
};

}  // namespace evps
