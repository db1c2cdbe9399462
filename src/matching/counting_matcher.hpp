// Counting-algorithm matcher with per-attribute operator indexes.
//
// The classic content-based matching scheme (Fabret et al. / PADRES): each
// predicate is indexed under its attribute; matching a publication walks, for
// each publication attribute, the set of satisfied predicates and counts hits
// per subscription. A subscription matches when its hit count equals its
// predicate count.
//
// Index structure per attribute (attributes interned to dense AttrId, so the
// top level is a flat vector, not a string-keyed map):
//   * four PagedBoundIndex interval indexes for < <= > >= — paged B-tree
//     leaves (SoA bound/slot arrays) under a flat router, giving O(log n)
//     insert/remove with contiguous page walks for the range scans
//   * hash maps for numeric and string equality
//   * SoA scan arrays for numeric != (IEEE `v != bound` is exactly the
//     content-based kNe, including NaN on either side) and a string != list
//   * an exact scan list (Predicate::matches) for ordered string
//     comparisons, for quarantined NaN-constant ordered/equality predicates
//     — NaN has no place in a sorted structure and such predicates can never
//     match — and for int constants that fail compares_as_double (|c| >=
//     2^53), whose doubles would order publication ints wrongly
//
// Subscriptions occupy dense slots; hit counting uses an epoch-stamped
// counter array (a generation stamp marks a slot's counter valid for the
// current match, so nothing is cleared between matches) and all scratch is
// per-matcher, making match() allocation-free in steady state.
//
// Identical predicates within one subscription are deduplicated on add: they
// are redundant for conjunctive semantics and would otherwise leave stale
// index entries behind on remove (the duplicate-predicate leak).
//
// Maintenance cost is the VES story (paper Figures 8 and 9): every version
// replacement is one rebound() here, which keeps the slot and its predicate
// storage, skips predicates the new version leaves unchanged and re-indexes
// each changed one under the same slot — for a moved ordered bound one
// erase plus one insert in its bound index, logarithmic in the population
// and allocation-free in steady state.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/attribute_table.hpp"
#include "matching/bound_index.hpp"
#include "matching/matcher.hpp"

namespace evps {

class CountingMatcher final : public Matcher {
 public:
  using Matcher::match;

  void add(SubscriptionId id, const std::vector<Predicate>& preds) override;
  bool remove(SubscriptionId id) override;
  void rebound(SubscriptionId id, const std::vector<Predicate>& version) override;
  void match(const Publication& pub, std::vector<SubscriptionId>& out) const override;
  [[nodiscard]] bool contains(SubscriptionId id) const override { return slot_of_.contains(id); }
  [[nodiscard]] std::size_t size() const override { return slot_of_.size(); }
  void collect_ids(std::vector<SubscriptionId>& out) const override {
    for (const auto& [id, slot] : slot_of_) out.push_back(id);
  }

  /// Total number of indexed predicates (diagnostics). Duplicate predicates
  /// within a subscription are deduplicated on add and not counted.
  [[nodiscard]] std::size_t predicate_count() const noexcept { return predicate_count_; }

  /// Physical entries across every per-attribute index structure
  /// (diagnostics/leak tests). Equals the number of live indexed predicates;
  /// a drained matcher must report 0 — stale entries that survive a remove
  /// (e.g. the historical NaN-keyed eq_num leak) show up here.
  [[nodiscard]] std::size_t indexed_entry_count() const noexcept;

 private:
  /// Dense per-matcher subscription slot; index into slots_ and the epoch
  /// counter arrays. Slots are recycled through a free list on remove.
  using SubSlot = std::uint32_t;

  struct AttributeIndex {
    // pub_value OP bound; paged (bound, slot) interval indexes, NaN-free.
    PagedBoundIndex lt, le, gt, ge;
    std::unordered_map<double, std::vector<SubSlot>> eq_num;
    std::unordered_map<std::string, std::vector<SubSlot>> eq_str;
    // Numeric != as SoA parallel arrays: the scan is a vectorisable
    // `pub != bound` sweep. NaN operands live here too (kNe is the one
    // operator a NaN constant satisfies — against every value).
    std::vector<double> ne_bounds;
    std::vector<SubSlot> ne_slots;
    // String != (matches every numeric publication value: incomparable).
    std::vector<std::pair<std::string, SubSlot>> ne_str;
    // Exact scan: ordered string comparisons, quarantined NaN-constant
    // ordered/equality predicates (never satisfiable) and int constants
    // beyond the exact doubles.
    std::vector<std::pair<Predicate, SubSlot>> misc;

    [[nodiscard]] bool empty() const noexcept {
      return lt.empty() && le.empty() && gt.empty() && ge.empty() && eq_num.empty() &&
             eq_str.empty() && ne_bounds.empty() && ne_str.empty() && misc.empty();
    }
  };

  struct SlotState {
    SubscriptionId id;               // invalid while the slot is free
    std::vector<Predicate> preds;    // deduplicated
  };

  /// Append `preds` minus repeats of an earlier predicate to `out`.
  static void dedup_into(const std::vector<Predicate>& preds, std::vector<Predicate>& out);
  /// Allocate/recycle a slot and register `id`'s deduplicated predicates.
  SubSlot claim_slot(SubscriptionId id, const std::vector<Predicate>& preds);
  void index_predicate(SubSlot slot, const Predicate& p);
  void unindex_predicate(SubSlot slot, const Predicate& p);
  [[nodiscard]] AttributeIndex* find_index(AttrId attr) noexcept {
    return attr < index_.size() ? &index_[attr] : nullptr;
  }
  [[nodiscard]] PagedBoundIndex& bound_list(AttributeIndex& idx, RelOp op) noexcept;

  /// Per-attribute indexes, keyed by interned AttrId. Grows monotonically
  /// with the attribute universe; empty entries cost one AttributeIndex.
  std::vector<AttributeIndex> index_;

  std::vector<SlotState> slots_;       // slot -> subscription state
  std::vector<SubSlot> free_slots_;    // recycled slots
  std::unordered_map<SubscriptionId, SubSlot> slot_of_;
  std::size_t predicate_count_ = 0;
  std::vector<Predicate> version_;     // rebound scratch: the deduplicated version

  // Epoch-stamped match scratch: counts_[s] is valid iff stamp_[s] ==
  // epoch_, so no per-match clearing. Engine operations are serialised per
  // matcher (see realtime_host), so mutable scratch in const match() is safe.
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::vector<std::uint32_t> counts_;
  mutable std::vector<SubSlot> touched_;
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace evps
