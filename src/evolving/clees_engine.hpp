// Cached Lazy Evaluation Evolving Subscriptions (CLEES) — Sections IV-C, V-C.
//
// Like LEES, subscriptions are split into a static part (standard matcher)
// and an evolving part held in the Lazy Evolution Storage. On the first
// publication that probes a subscription, the evolving part is materialised
// into a concrete version which is cached for the subscription's time
// threshold (TT); until it expires, subsequent publications match against
// the cached version with plain predicate tests (cache hit). After expiry
// the next probe triggers re-materialisation (cache miss).
//
// The cache is kept separate from the standard matcher: inserting versions
// into the matcher would leverage its index but raise contention on the
// shared structure (Section V-C) — and would re-introduce VES's maintenance
// scaling, which CLEES exists to avoid.
//
// A cached version is just the vector of bound values the compiled
// predicates evaluated to (CachedBound), parallel to the compiled parts —
// re-materialisation overwrites it in place, so steady state allocates
// nothing.
//
// Sharding (DESIGN.md §11): the storage is partitioned like the matcher and
// the lazy phase fans out one worker per shard, like LEES. Crucially the TT
// cache state (Part::extra) lives inside the shard that owns the part, so a
// worker only ever mutates cache entries no other worker can reach. For K=1
// probe order and cache trajectory are exactly the sequential ones; for K>1
// the within-destination early exit is per shard, so a part may be probed
// (and its cache refreshed) where K=1 would have skipped it — every cached
// version is still at most TT old, so the paper's staleness contract holds
// for every K.
#pragma once

#include <vector>

#include "evolving/engine.hpp"
#include "evolving/lazy_storage.hpp"

namespace evps {

class CleesEngine final : public BrokerEngine {
 public:
  explicit CleesEngine(const EngineConfig& config);

  [[nodiscard]] std::size_t storage_size() const noexcept {
    std::size_t total = 0;
    for (const auto& storage : storage_) total += storage.size();
    return total;
  }

  void export_audit_state(audit::EngineState& out) const override;

 protected:
  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;
  void do_match(const Publication& pub, const VariableSnapshot* snapshot, EngineHost& host,
                std::vector<NodeId>& destinations) override;
  void do_match_batch(std::span<const Publication* const> pubs, const VariableSnapshot* snapshot,
                      EngineHost& host, std::vector<std::vector<NodeId>>& destinations) override;

 private:
  struct TtCache {
    std::vector<CachedBound> bounds;  // parallel to Part::preds
    SimTime expires = SimTime::zero();
    /// A version has been materialised into `bounds` (expires alone cannot
    /// tell: the analysis windows below outlive it).
    bool populated = false;
    /// Static analysis at install time (analysis/analyzer.hpp): bounds
    /// provably constant for every reachable variable state — the first
    /// materialised version never expires.
    bool constant_bounds = false;
    /// Bounds independent of `t`: a version stays exact until some registry
    /// variable changes, however far past TT that is.
    bool time_invariant = false;
    /// VariableRegistry::global_version() when `bounds` was materialised.
    std::uint64_t seen_version = 0;
  };
  using Storage = LazyStorage<TtCache>;

  /// Per-shard-worker scratch; cacheline-aligned against false sharing.
  struct alignas(64) ShardScratch {
    EvalScope scope;
    std::vector<double> stack;
    std::vector<NodeId> dests;
    /// Bounds materialised under a piggybacked snapshot are never cached
    /// (they are anchored at the publication's entry time, not broker time);
    /// this scratch keeps that path allocation-free too.
    std::vector<CachedBound> snapshot_bounds;
    std::uint64_t lazy_evaluations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  };

  [[nodiscard]] Storage& storage_for(SubscriptionId id) noexcept {
    return storage_[sharded_->shard_of(id)];
  }

  void process_m1(const std::vector<SubscriptionId>& m1, std::vector<NodeId>& destinations);
  void lazy_eval_phase(const Publication& pub, const VariableSnapshot* snapshot,
                       const VariableRegistry& registry, SimTime now,
                       std::vector<NodeId>& destinations);

  // Lazy Evolution Storage: evolving parts grouped per destination, one
  // partition per matcher shard.
  std::vector<Storage> storage_;
  std::vector<ShardScratch> shard_scratch_;
};

}  // namespace evps
