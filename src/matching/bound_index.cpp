#include "matching/bound_index.hpp"

namespace evps {

std::size_t PagedBoundIndex::page_for(double bound, Slot slot) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = pages_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_less(max_bound_[mid], max_slot_[mid], bound, slot)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // A key beyond every page max still lands in the last page.
  return lo < pages_.size() ? lo : pages_.size() - 1;
}

std::size_t PagedBoundIndex::lower_bound_in(const Page& page, double bound, Slot slot) noexcept {
  std::size_t lo = 0;
  std::size_t hi = page.bounds.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_less(page.bounds[mid], page.slots[mid], bound, slot)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void PagedBoundIndex::refresh_max(std::size_t p) {
  max_bound_[p] = pages_[p].bounds.back();
  max_slot_[p] = pages_[p].slots.back();
}

void PagedBoundIndex::split_page(std::size_t p) {
  Page& page = pages_[p];
  const std::size_t half = page.bounds.size() / 2;
  Page upper;
  upper.bounds.assign(page.bounds.begin() + static_cast<std::ptrdiff_t>(half),
                      page.bounds.end());
  upper.slots.assign(page.slots.begin() + static_cast<std::ptrdiff_t>(half), page.slots.end());
  page.bounds.resize(half);
  page.slots.resize(half);
  // The old max key moves with the upper half; the lower half gets a fresh
  // max. (`page` is invalidated by the inserts below — done mutating it.)
  pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(p) + 1, std::move(upper));
  max_bound_.insert(max_bound_.begin() + static_cast<std::ptrdiff_t>(p) + 1, max_bound_[p]);
  max_slot_.insert(max_slot_.begin() + static_cast<std::ptrdiff_t>(p) + 1, max_slot_[p]);
  refresh_max(p);
}

void PagedBoundIndex::insert(double bound, Slot slot) {
  assert(!std::isnan(bound) && "NaN bounds must be quarantined by the caller");
  if (pages_.empty()) {
    Page page;
    page.bounds.push_back(bound);
    page.slots.push_back(slot);
    pages_.push_back(std::move(page));
    max_bound_.push_back(bound);
    max_slot_.push_back(slot);
    size_ = 1;
    return;
  }
  const std::size_t p = page_for(bound, slot);
  Page& page = pages_[p];
  const std::size_t i = lower_bound_in(page, bound, slot);
  page.bounds.insert(page.bounds.begin() + static_cast<std::ptrdiff_t>(i), bound);
  page.slots.insert(page.slots.begin() + static_cast<std::ptrdiff_t>(i), slot);
  ++size_;
  if (i + 1 == page.bounds.size()) refresh_max(p);
  if (page.bounds.size() > kPageCapacity) split_page(p);
}

bool PagedBoundIndex::erase(double bound, Slot slot) {
  if (pages_.empty()) return false;
  assert(!std::isnan(bound) && "NaN bounds must be quarantined by the caller");
  const std::size_t p = page_for(bound, slot);
  Page& page = pages_[p];
  const std::size_t i = lower_bound_in(page, bound, slot);
  // Equality through IEEE ==: exact for everything the index admits (no
  // NaN), and deliberately identifies -0.0 with 0.0 like the ordering does.
  if (i >= page.bounds.size() || page.bounds[i] != bound || page.slots[i] != slot) return false;
  page.bounds.erase(page.bounds.begin() + static_cast<std::ptrdiff_t>(i));
  page.slots.erase(page.slots.begin() + static_cast<std::ptrdiff_t>(i));
  --size_;
  if (page.bounds.empty()) {
    pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(p));
    max_bound_.erase(max_bound_.begin() + static_cast<std::ptrdiff_t>(p));
    max_slot_.erase(max_slot_.begin() + static_cast<std::ptrdiff_t>(p));
  } else if (i == page.bounds.size()) {
    refresh_max(p);
  }
  return true;
}

}  // namespace evps
