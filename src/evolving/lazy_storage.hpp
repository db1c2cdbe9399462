// Shared storage scaffolding for the lazy evolving engines (LEES's LEME,
// CLEES's Lazy Evolution Storage, the hybrid's adaptive store).
//
// All three keep evolving parts grouped by *destination* (next hop) so a
// destination's evaluation can stop at the first matching part (the paper's
// early-exit optimisation, Fig. 10(b)), and all three need two pieces of
// per-publication scratch:
//
//   * which evolving parts' static halves appeared in the matcher result M1
//     (parts with a static part may only match if it did), and
//   * which destinations are already settled by a purely-static match.
//
// The seed allocated an unordered_set for each on every do_match. This
// helper replaces both with generation-stamped marks: every part owns a
// dense scratch slot (recycled through a free list) in `m1_stamp_`, every
// group carries a `done_stamp`, and opening a match bumps the generation
// instead of clearing anything — the same trick the matchers use for their
// hit counters (DESIGN.md §7). Steady-state matching therefore performs no
// heap allocation in this layer.
//
// A group keeps its parts contiguous, so the scan walks memory in order.
// The slot also locates its part (group and index), so a candidate filter
// that names a slot reaches the part and its destination in O(1).
//
// `Extra` is the engine-specific per-part payload (the filter bookkeeping
// for LEES, the TT cache for CLEES, mode + version for the hybrid).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "expr/variable_registry.hpp"
#include "message/messages.hpp"
#include "message/predicate.hpp"
#include "message/subscription.hpp"

namespace evps {

/// One materialised evolving-predicate bound (the CLEES TT cache and the
/// hybrid's version store). `unbound` records that evaluation hit an unbound
/// variable: such a predicate can never match, regardless of operator —
/// like the never-matching `attr < NaN` version VES materialises.
struct CachedBound {
  double bound = 0.0;
  bool unbound = false;
};

/// pub_value OP bounds[i] for every compiled predicate. Missing attributes
/// and unbound bounds fail closed; NaN bounds from arithmetic keep the
/// predicate's own operator (only kNe accepts incomparables), exactly like
/// matching against a materialised Predicate.
[[nodiscard]] inline bool cached_bounds_match(const std::vector<CompiledPredicate>& preds,
                                              const std::vector<CachedBound>& bounds,
                                              const Publication& pub) {
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const Value* v = pub.get(preds[i].attr());
    if (v == nullptr || bounds[i].unbound) return false;
    if (!apply_rel_op(preds[i].op(), *v, Value{bounds[i].bound})) return false;
  }
  return true;
}

/// Materialise every predicate's bound under `scope` into `bounds`
/// (clearing it first). All bounds are evaluated even after a failing one:
/// the whole version is cached, like the seed's materialise-then-match.
inline void materialize_bounds(const std::vector<CompiledPredicate>& preds,
                               const EvalScope& scope, std::vector<double>& stack,
                               std::vector<CachedBound>& bounds) {
  bounds.clear();
  if (bounds.capacity() < preds.size()) bounds.reserve(preds.size());
  for (const auto& cp : preds) {
    CachedBound cb;
    cb.bound = cp.bound(scope, stack, cb.unbound);
    bounds.push_back(cb);
  }
}

template <class Extra>
class LazyStorage {
 public:
  struct Part {
    SubscriptionId id;
    SubscriptionPtr sub;  // carries epoch and metadata
    /// Compiled evolving predicates (attribute ids + flat programs).
    std::vector<CompiledPredicate> preds;
    bool has_static_part = false;
    std::uint32_t slot = 0;  // dense scratch index, stable for the part's life
    Extra extra{};
  };

  struct Group {
    NodeId dest;
    std::vector<Part> parts;
    std::uint32_t done_stamp = 0;  // dest settled iff == current generation
  };

  /// Build a part around an evolving subscription's compiled part (the
  /// verified programs of compile_evolving, window_envelope.hpp).
  [[nodiscard]] Part make_part(const SubscriptionPtr& sub, std::vector<CompiledPredicate> preds,
                               bool has_static_part) {
    Part part;
    part.id = sub->id();
    part.sub = sub;
    part.preds = std::move(preds);
    part.has_static_part = has_static_part;
    if (!free_slots_.empty()) {
      part.slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      part.slot = static_cast<std::uint32_t>(m1_stamp_.size());
      m1_stamp_.push_back(0);
      location_.emplace_back();
    }
    return part;
  }

  void add(Part part, NodeId dest) {
    slot_of_.emplace(part.id, part.slot);
    auto [it, inserted] = groups_.try_emplace(dest);
    Group& group = it->second;
    if (inserted) {
      group.dest = dest;
      group_of_.emplace(dest, &group);
    }
    location_[part.slot] = Location{&group, static_cast<std::uint32_t>(group.parts.size())};
    group.parts.push_back(std::move(part));
    ++count_;
  }

  /// The part stored for `id`, or null.
  [[nodiscard]] const Part* find(SubscriptionId id) const {
    const auto it = slot_of_.find(id);
    return it == slot_of_.end() ? nullptr : &part(it->second);
  }

  /// Remove the part for `id` under `dest`; false if unknown.
  bool remove(SubscriptionId id, NodeId dest) {
    const auto git = groups_.find(dest);
    if (git == groups_.end()) return false;
    auto& parts = git->second.parts;
    for (auto it = parts.begin(); it != parts.end(); ++it) {
      if (it->id != id) continue;
      free_slots_.push_back(it->slot);
      slot_of_.erase(id);
      for (auto next = parts.erase(it); next != parts.end(); ++next) {
        --location_[next->slot].index;
      }
      --count_;
      if (parts.empty()) {
        group_of_.erase(dest);
        groups_.erase(git);
      }
      return true;
    }
    return false;
  }

  /// Open a new per-publication match round (invalidates all stamps in O(1)).
  void begin_match() {
    if (++gen_ == 0) {  // generation wrapped: clear stamps explicitly
      std::fill(m1_stamp_.begin(), m1_stamp_.end(), 0);
      for (auto& [dest, group] : groups_) group.done_stamp = 0;
      gen_ = 1;
    }
  }

  /// Record a matcher hit for `id`. Returns true iff `id` is an evolving
  /// part here (i.e. the hit was its static half, now marked).
  bool note_m1(SubscriptionId id) {
    const auto it = slot_of_.find(id);
    if (it == slot_of_.end()) return false;
    m1_stamp_[it->second] = gen_;
    return true;
  }

  /// Mark `dest` settled for this round (a purely-static subscription of
  /// that destination already matched).
  void mark_done(NodeId dest) {
    const auto it = group_of_.find(dest);
    if (it != group_of_.end()) settle(*it->second);
  }

  /// Mark `group` settled for this round (one of its parts matched).
  void settle(Group& group) noexcept { group.done_stamp = gen_; }

  [[nodiscard]] bool done(const Group& group) const noexcept {
    return group.done_stamp == gen_;
  }
  [[nodiscard]] bool m1_hit(const Part& part) const noexcept {
    return m1_stamp_[part.slot] == gen_;
  }

  /// The part in `slot` and its group (the slot must be in use).
  [[nodiscard]] Group& group_of(std::uint32_t slot) noexcept { return *location_[slot].group; }
  [[nodiscard]] Part& part(std::uint32_t slot) noexcept {
    return location_[slot].group->parts[location_[slot].index];
  }
  [[nodiscard]] const Part& part(std::uint32_t slot) const noexcept {
    return location_[slot].group->parts[location_[slot].index];
  }

  /// Groups in deterministic (destination) order.
  [[nodiscard]] std::map<NodeId, Group>& groups() noexcept { return groups_; }
  [[nodiscard]] const std::map<NodeId, Group>& groups() const noexcept { return groups_; }

  /// Number of evolving parts stored.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  std::map<NodeId, Group> groups_;  // node handles are stable -> Group* is too
  std::unordered_map<NodeId, Group*> group_of_;
  std::unordered_map<SubscriptionId, std::uint32_t> slot_of_;
  struct Location {
    Group* group = nullptr;
    std::uint32_t index = 0;  // into group->parts
  };
  std::vector<Location> location_;       // slot -> where its part lives
  std::vector<std::uint32_t> m1_stamp_;  // slot -> stamp; valid iff == gen_
  std::vector<std::uint32_t> free_slots_;
  std::size_t count_ = 0;
  std::uint32_t gen_ = 0;
};

}  // namespace evps
