// Incremental per-broker index of the covering relation.
//
// The index maintains a two-level forest over the subscriptions a broker has
// accepted: every subscription is either a *root* or the direct child of a
// root that provably covers it (analysis/covering.hpp). Roots are what the
// broker needs to disseminate upstream — a covered child's publications are
// already routed towards its root — so the forest is exactly the routing
// view of the covering relation.
//
// Invariants:
//   * Children hang off roots only (depth <= 1). Covering is transitive, so
//     when a root C is demoted under a new root A, C's children re-attach to
//     A directly: A covers C covers D implies A covers D. The re-attachment
//     is an index-local move with no network traffic. What the index keeps
//     is the covering relation only: every child's publications are a
//     subset of its parent's. It holds nothing about directions — a child
//     skipped exactly the directions its parent *at subscribe time* reached,
//     and a new parent may not reach them all. Re-checking that reach on
//     every parent change is ROADMAP item 1's open direction gap.
//   * Shapes come from the subscribe-time summary (analysis/summary.hpp)
//     handed to add() and are never refreshed. This is sound because
//     everything a kCovers verdict depends on is monotone: declared
//     variable ranges are fixed at declaration, registry histories are
//     append-only (a variable set once resolves at every later instant),
//     and envelopes already quantify over all t >= 0, so epoch offsets
//     between the two subscriptions cannot invalidate the verdict.
//   * Candidate filtering is by attribute: a coverer's attrs are a subset of
//     the coveree's, so any constrained root covering B appears in the
//     bucket of at least one of B's attributes, and any root covered by a
//     constrained A appears in the bucket of A's first attribute.
//
// Uncover-on-remove: removing a *child* is silent. Removing a *root*
// orphans its children; each is first offered to the surviving roots (and to
// siblings promoted moments earlier, so duplicate groups collapse to one
// re-dissemination), and only those with no surviving coverer are promoted
// to roots — the promoted list is what the broker must re-disseminate
// upstream before the coverer's unsubscribe propagates.
#pragma once

#include <unordered_map>
#include <vector>

#include "analysis/summary.hpp"

namespace evps {

class CoveringIndex {
 public:
  /// `relational` enables the octagon refinement pass
  /// (analysis/relational.hpp) on pairs the per-attribute check leaves
  /// kUnknown, over the relational shape each summary carries.
  explicit CoveringIndex(bool relational = true) : relational_(relational) {}

  struct AddResult {
    /// Root that covers the new subscription; invalid() when the new
    /// subscription itself became a root.
    SubscriptionId parent = SubscriptionId::invalid();
    /// Former roots now covered by (and attached under) the new root. Their
    /// upstream dissemination is newly redundant.
    std::vector<SubscriptionId> demoted;
  };

  struct RemoveResult {
    /// Former children promoted to roots: no surviving root covers them, so
    /// the broker must re-disseminate them upstream (before forwarding the
    /// removed coverer's unsubscribe — per-link FIFO keeps that race-free).
    std::vector<SubscriptionId> promoted;
  };

  /// Check the subscription `id`, summarized as `summary`
  /// (summarize(sub, registry)), against the current roots and insert it;
  /// the index keeps the summary's shapes. Throws std::invalid_argument when
  /// `id` is already present (a duplicate would corrupt the forest's
  /// parent/children links).
  AddResult add(SubscriptionId id, SubscriptionSummary summary);

  /// Remove a subscription; no-op result when the id is unknown or a child.
  RemoveResult remove(SubscriptionId id);

  [[nodiscard]] bool contains(SubscriptionId id) const { return entries_.count(id) != 0; }
  /// A subscription the broker should disseminate (not covered by another).
  [[nodiscard]] bool is_root(SubscriptionId id) const;
  /// The covering root for `id` (itself when it is a root).
  [[nodiscard]] SubscriptionId root_of(SubscriptionId id) const;
  /// Direct children of a root (empty for children / unknown ids).
  [[nodiscard]] std::vector<SubscriptionId> children_of(SubscriptionId id) const;

  /// Visit every entry as (id, parent); parent is invalid() for roots.
  /// Snapshot export support (analysis/audit) — children are recoverable
  /// via children_of, so (id, parent) pairs are the whole forest.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [id, e] : entries_) fn(id, e.parent);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t root_count() const noexcept { return root_count_; }
  [[nodiscard]] const CoverStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    SubscriptionShape inner;
    SubscriptionShape outer;
    RelationalShape rel;
    SubscriptionId parent = SubscriptionId::invalid();  // invalid => root
    std::vector<SubscriptionId> children;               // roots only
  };

  [[nodiscard]] bool check_covers(const Entry& coverer, const Entry& coveree);
  /// First surviving root whose inner shape covers `e`'s outer shape.
  [[nodiscard]] SubscriptionId find_coverer(const Entry& e);
  void bucket_insert(SubscriptionId id, const Entry& e);
  void bucket_erase(SubscriptionId id, const Entry& e);

  std::unordered_map<SubscriptionId, Entry> entries_;
  /// Roots that constrain a given attribute (a root appears once per attr).
  std::unordered_map<AttrId, std::vector<SubscriptionId>> roots_by_attr_;
  /// Roots with no predicates at all (they cover everything).
  std::vector<SubscriptionId> unconstrained_roots_;
  std::size_t root_count_ = 0;
  bool relational_ = true;
  CoverStats stats_;
};

}  // namespace evps
