// The standard (non-evolving) matching engine interface.
//
// Matchers store *static* predicates only. Evolving predicates never enter a
// matcher directly: VES inserts materialised versions, LEES/CLEES keep them
// in their own structures (Section V). Attempting to add an evolving
// predicate throws.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/ids.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"

namespace evps {

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Install `preds` (conjunctive) under `id`. `id` must not already be
  /// present; predicates must all be static.
  virtual void add(SubscriptionId id, const std::vector<Predicate>& preds) = 0;

  /// Remove the subscription; returns false if unknown.
  virtual bool remove(SubscriptionId id) = 0;

  /// Replace `id`'s predicates with `version` (installing it when `id` is
  /// unknown). The observable result equals remove(id) followed by
  /// add(id, version), which is what the default does; a version with an
  /// evolving predicate throws before anything changes. This is the one
  /// version-replacement path (VES evolutions, LEES filter envelopes):
  /// CountingMatcher overrides it to keep the slot and re-index only the
  /// predicates that changed.
  virtual void rebound(SubscriptionId id, const std::vector<Predicate>& version) {
    require_static(version);
    remove(id);
    add(id, version);
  }

  /// Append all matching subscription ids to `out` in ascending id order.
  virtual void match(const Publication& pub, std::vector<SubscriptionId>& out) const = 0;

  /// Match a batch of publications: out[i] receives the ascending-id hits of
  /// *pubs[i], exactly as if match(*pubs[i], out[i]) had been called in a
  /// loop (the default does just that). ShardedMatcher overrides this to
  /// amortise one pool dispatch over the whole batch. The batch is a span of
  /// pointers so brokers can assemble it from shared (refcounted)
  /// publications without copying events into a contiguous staging vector.
  /// `out` is grown to pubs.size() if needed (never shrunk, so inner vectors
  /// keep their capacity) and each used entry is cleared first.
  virtual void match_batch(std::span<const Publication* const> pubs,
                           std::vector<std::vector<SubscriptionId>>& out) const {
    if (out.size() < pubs.size()) out.resize(pubs.size());
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      out[i].clear();
      match(*pubs[i], out[i]);
    }
  }

  /// Convenience overload for contiguous publications (tests, benches):
  /// builds the pointer span and delegates to the virtual batch entry point.
  void match_batch(std::span<const Publication> pubs,
                   std::vector<std::vector<SubscriptionId>>& out) const {
    std::vector<const Publication*> ptrs;
    ptrs.reserve(pubs.size());
    for (const auto& pub : pubs) ptrs.push_back(&pub);
    match_batch(std::span<const Publication* const>(ptrs), out);
  }

  [[nodiscard]] virtual bool contains(SubscriptionId id) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Append every installed subscription id to `out`, in no particular
  /// order. Snapshot/audit support (analysis/audit): lets the auditor check
  /// the matcher's physical footprint against the engine's logical table.
  virtual void collect_ids(std::vector<SubscriptionId>& out) const = 0;

  /// Convenience wrapper.
  [[nodiscard]] std::vector<SubscriptionId> match(const Publication& pub) const {
    std::vector<SubscriptionId> out;
    match(pub, out);
    return out;
  }

 protected:
  static void require_static(const std::vector<Predicate>& preds) {
    for (const auto& p : preds) {
      if (p.is_evolving()) {
        throw std::invalid_argument(
            "matcher only stores static predicates; materialise evolving ones first");
      }
    }
  }
};

using MatcherPtr = std::unique_ptr<Matcher>;

/// Matcher implementations selectable by configuration:
///   * kBruteForce — linear-scan oracle (tests, baselines)
///   * kCounting   — paged per-attribute interval indexes: fast match,
///                   O(log n) insert/remove and slot-keeping rebound (the
///                   default)
enum class MatcherKind { kBruteForce, kCounting };

[[nodiscard]] MatcherPtr make_matcher(MatcherKind kind);

}  // namespace evps
