// Subscription-sharded parallel matcher.
//
// Partitions subscriptions across K underlying matcher shards by a hash of
// the subscription id and fans match() out to the shared worker pool, one
// task per shard. Each shard is a complete single-threaded matcher with its
// own epoch scratch, so the workers never share mutable state; the only
// cross-thread traffic is the pool's index handshake and the per-shard hit
// vectors, which are merged on the caller after the join.
//
// Determinism: every shard returns its hits in ascending id order (the
// Matcher contract) into its own scratch vector, and the merge sorts the
// concatenation — the result is the ascending-id hit list over all shards,
// byte-identical to what a single unsharded matcher returns, for every K and
// every pool schedule. K=1 bypasses the pool and the merge entirely and is
// the exact single-matcher code path.
//
// match_batch() amortises one pool dispatch (and, inside each shard, one
// epoch sweep per publication without re-crossing the pool) over a whole
// vector of publications: task (shard s) matches *all* publications against
// shard s, so a batch of B publications costs one fork/join instead of B.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matching/matcher.hpp"

namespace evps {

/// Default shard count: the EVPS_MATCHER_THREADS environment variable,
/// clamped to [1, 64]; unset, empty, or unparsable values mean 1 (the
/// single-threaded layout). Read once and cached for the process lifetime.
[[nodiscard]] std::size_t default_matcher_shards();

class ShardedMatcher final : public Matcher {
 public:
  /// `shards` == 0 resolves to default_matcher_shards().
  explicit ShardedMatcher(MatcherKind kind, std::size_t shards = 0);

  /// Which shard owns `id`. Pure function of (id, shard_count): a
  /// splittable 64-bit mix so that consecutive ids spread evenly.
  [[nodiscard]] static std::size_t shard_of(SubscriptionId id, std::size_t shards) noexcept;

  void add(SubscriptionId id, const std::vector<Predicate>& preds) override;
  bool remove(SubscriptionId id) override;
  void rebound(SubscriptionId id, const std::vector<Predicate>& version) override;
  void match(const Publication& pub, std::vector<SubscriptionId>& out) const override;
  void match_batch(std::span<const Publication* const> pubs,
                   std::vector<std::vector<SubscriptionId>>& out) const override;
  using Matcher::match_batch;  // keep the contiguous-span convenience visible
  [[nodiscard]] bool contains(SubscriptionId id) const override;
  [[nodiscard]] std::size_t size() const override;
  void collect_ids(std::vector<SubscriptionId>& out) const override {
    for (const MatcherPtr& s : shards_) s->collect_ids(out);
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(SubscriptionId id) const noexcept {
    return shard_of(id, shards_.size());
  }
  /// Direct access to one shard (engines route per-shard work through this).
  [[nodiscard]] Matcher& shard(std::size_t s) { return *shards_[s]; }
  [[nodiscard]] const Matcher& shard(std::size_t s) const { return *shards_[s]; }
  /// Subscriptions currently installed in each shard (occupancy metric).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;

 private:
  struct ShardScratch {
    // One hit vector per publication of the current batch; hits[0] doubles
    // as the single-publication scratch.
    std::vector<std::vector<SubscriptionId>> hits;
  };

  std::vector<MatcherPtr> shards_;
  // Mutable: match() is const but reuses per-shard scratch, exactly like the
  // underlying matchers' epoch scratch. Guarded by the engines' single-writer
  // discipline (concurrent match() calls on one ShardedMatcher are not
  // allowed; concurrent calls on different instances are).
  mutable std::vector<ShardScratch> scratch_;
};

}  // namespace evps
