#include "analysis/covering_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace evps {
namespace {

void erase_value(std::vector<SubscriptionId>& v, SubscriptionId id) {
  v.erase(std::remove(v.begin(), v.end(), id), v.end());
}

}  // namespace

bool CoveringIndex::check_covers(const Entry& coverer, const Entry& coveree) {
  ++stats_.pairs;
  CoverVerdict v = covers(coverer.inner, coveree.outer);
  if (v != CoverVerdict::kCovers && relational_) {
    v = covers_relational(coverer.inner, coverer.rel, coveree.outer, coveree.rel);
    if (v == CoverVerdict::kCovers) ++stats_.relational;
  }
  if (v == CoverVerdict::kCovers) {
    ++stats_.covered;
    return true;
  }
  ++stats_.unknown;
  return false;
}

SubscriptionId CoveringIndex::find_coverer(const Entry& e) {
  // An unconstrained root matches every publication.
  for (const SubscriptionId root : unconstrained_roots_) {
    if (check_covers(entries_.at(root), e)) return root;
  }
  // A constrained coverer's attrs are a subset of e's, so it sits in the
  // bucket of each of its own attrs — all of which e's shape also has.
  // Scanning e's buckets visits it at least once; `tried` dedupes.
  std::vector<SubscriptionId> tried;
  for (const auto& [attr, set] : e.outer.attrs) {
    (void)set;
    const auto bucket = roots_by_attr_.find(attr);
    if (bucket == roots_by_attr_.end()) continue;
    for (const SubscriptionId root : bucket->second) {
      if (std::find(tried.begin(), tried.end(), root) != tried.end()) continue;
      tried.push_back(root);
      if (check_covers(entries_.at(root), e)) return root;
    }
  }
  return SubscriptionId::invalid();
}

void CoveringIndex::bucket_insert(SubscriptionId id, const Entry& e) {
  if (e.inner.attrs.empty() && e.outer.attrs.empty()) {
    unconstrained_roots_.push_back(id);
    return;
  }
  for (const auto& [attr, set] : e.outer.attrs) {
    (void)set;
    roots_by_attr_[attr].push_back(id);
  }
}

void CoveringIndex::bucket_erase(SubscriptionId id, const Entry& e) {
  if (e.inner.attrs.empty() && e.outer.attrs.empty()) {
    erase_value(unconstrained_roots_, id);
    return;
  }
  for (const auto& [attr, set] : e.outer.attrs) {
    (void)set;
    const auto bucket = roots_by_attr_.find(attr);
    if (bucket == roots_by_attr_.end()) continue;
    erase_value(bucket->second, id);
    if (bucket->second.empty()) roots_by_attr_.erase(bucket);
  }
}

CoveringIndex::AddResult CoveringIndex::add(SubscriptionId id, SubscriptionSummary summary) {
  if (contains(id)) {
    // A debug-only assert is not enough: a release-build duplicate would
    // rewire other entries' parent/children links before the final emplace
    // silently no-ops, corrupting the forest.
    throw std::invalid_argument("CoveringIndex::add: duplicate subscription id");
  }
  Entry e;
  e.inner = std::move(summary.inner);
  e.outer = std::move(summary.outer);
  e.rel = std::move(summary.rel);

  AddResult result;
  result.parent = find_coverer(e);
  if (result.parent.valid()) {
    e.parent = result.parent;
    entries_.at(result.parent).children.push_back(id);
    entries_.emplace(id, std::move(e));
    return result;
  }

  // New root: demote every existing root it covers. A constrained coverer's
  // attrs all appear in the coveree's shape, so covered roots sit in the
  // first-attr bucket; an unconstrained new root must scan everything.
  std::vector<SubscriptionId> candidates;
  if (e.inner.attrs.empty()) {
    candidates = unconstrained_roots_;
    for (const auto& [attr, bucket] : roots_by_attr_) {
      (void)attr;
      for (const SubscriptionId id : bucket) {
        if (std::find(candidates.begin(), candidates.end(), id) == candidates.end()) {
          candidates.push_back(id);
        }
      }
    }
  } else {
    const auto bucket = roots_by_attr_.find(e.inner.attrs.begin()->first);
    if (bucket != roots_by_attr_.end()) candidates = bucket->second;
  }
  for (const SubscriptionId root_id : candidates) {
    Entry& root = entries_.at(root_id);
    if (!check_covers(e, root)) continue;
    // Demote: the root and (by transitivity) its whole covering set move
    // under the new root. The former root's own forwards are retracted by
    // the broker; its children keep the forwards they have, although the
    // new root may not reach every direction they skipped under the old
    // one (ROADMAP item 1's open direction gap).
    bucket_erase(root_id, root);
    --root_count_;
    for (const SubscriptionId child : root.children) {
      entries_.at(child).parent = id;
      e.children.push_back(child);
    }
    root.children.clear();
    root.parent = id;
    e.children.push_back(root_id);
    result.demoted.push_back(root_id);
  }

  bucket_insert(id, e);
  ++root_count_;
  entries_.emplace(id, std::move(e));
  return result;
}

CoveringIndex::RemoveResult CoveringIndex::remove(SubscriptionId id) {
  RemoveResult result;
  const auto it = entries_.find(id);
  if (it == entries_.end()) return result;
  Entry removed = std::move(it->second);
  entries_.erase(it);

  if (removed.parent.valid()) {
    erase_value(entries_.at(removed.parent).children, id);
    return result;
  }

  bucket_erase(id, removed);
  --root_count_;

  // Uncover-on-remove: offer each orphan to the surviving roots — including
  // siblings promoted earlier in this loop, so a group of near-duplicates
  // collapses onto one promoted representative instead of all flooding.
  for (const SubscriptionId child_id : removed.children) {
    Entry& child = entries_.at(child_id);
    child.parent = SubscriptionId::invalid();
    const SubscriptionId coverer = find_coverer(child);
    if (coverer.valid()) {
      child.parent = coverer;
      entries_.at(coverer).children.push_back(child_id);
    } else {
      bucket_insert(child_id, child);
      ++root_count_;
      result.promoted.push_back(child_id);
    }
  }
  return result;
}

bool CoveringIndex::is_root(SubscriptionId id) const {
  const auto it = entries_.find(id);
  return it != entries_.end() && !it->second.parent.valid();
}

SubscriptionId CoveringIndex::root_of(SubscriptionId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return SubscriptionId::invalid();
  return it->second.parent.valid() ? it->second.parent : id;
}

std::vector<SubscriptionId> CoveringIndex::children_of(SubscriptionId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? std::vector<SubscriptionId>{} : it->second.children;
}

}  // namespace evps
