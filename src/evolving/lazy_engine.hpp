// The lazy evolving engines' shared skeleton: LEES (Sections IV-B, V-B),
// CLEES (IV-C, V-C) and the adaptive hybrid all run this one sharded loop
// and differ only in how they *probe* one evolving part.
//
// A subscription is split in two parts sharing its id: the non-evolving
// predicates go into the standard matcher (producing match set M1), while
// the evolving predicates enter the lazy storage, which is probed on demand
// for every incoming publication (producing M2). A publication is forwarded
// towards subscriptions in M1 ∩ M2; single-part subscriptions (only static
// or only evolving predicates) are decided by their one engine alone.
//
// The storage groups evolving parts by *destination* (next hop): once any
// subscription of a destination is known to match, probing for that
// destination stops, because the publication must be forwarded there
// regardless of further matches — the early-exit behaviour behind
// Figure 10(b).
//
// Sharding (DESIGN.md §11): the storage is partitioned like the matcher —
// one LazyStorage per matcher shard, parts routed by the same id hash — and
// the M2 phase fans out one worker per shard. Each worker owns its shard's
// storage (generation stamps and per-part probe state included) plus a
// private scope/stack/result scratch, so workers share nothing mutable.
// Purely-static settlement (mark_done) is broadcast to every shard before
// the fan-out, which keeps the done-destination skip exact for any K; the
// within-destination early exit is per (shard, destination). For K=1 that
// is exactly the paper's probe order; for K>1 a worker may probe parts the
// sequential order skips, so the probe counters always depend on K, and an
// engine whose probe refreshes cached state (CLEES, the hybrid) may hold a
// different — still at most TT old — version than K=1 would.
//
// The engine supplies, as `Derived`:
//
//   * bool probe(Part&, const Publication&, const ProbeContext&,
//                ShardScratch&) — does this evolving part match? Runs on a
//     shard worker and may only touch the part and the worker's scratch;
//   * optionally on_install(Part&, const Installed&, EngineHost&), run on
//     each freshly built part before it is stored.
//
// Each skeleton is explicitly instantiated once, in its engine's .cpp next
// to the probe rule (the engine header declares it `extern template`). The
// rule is declared `inline` and defined only in that .cpp — no other
// translation unit instantiates the loop — so no out-of-line copy is needed
// and the rule inlines into the loop that calls it for every part.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "evolving/engine.hpp"
#include "evolving/lazy_storage.hpp"

namespace evps {

template <class Derived, class Extra>
class LazyEngine : public BrokerEngine {
 public:
  /// Number of evolving parts stored, over all shards.
  [[nodiscard]] std::size_t storage_size() const noexcept;

  void export_audit_state(audit::EngineState& out) const override;

 protected:
  using Storage = LazyStorage<Extra>;
  using Part = typename Storage::Part;

  /// Per-shard-worker scratch; cacheline-aligned so parallel workers do not
  /// false-share counters.
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

  /// The publication-wide inputs of a probe, captured once on the calling
  /// thread: workers must not touch the host, and the registry cannot change
  /// while a match is in flight (variable updates are main-thread events).
  struct ProbeContext {
    const VariableSnapshot* snapshot = nullptr;
    SimTime now;
    std::uint64_t global_version = 0;  ///< VariableRegistry::global_version()
  };

  /// Default install hook: nothing to derive.
  void on_install(Part& /*part*/, const Installed& /*entry*/, EngineHost& /*host*/) {}

  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;
  void do_match(const Publication& pub, const VariableSnapshot* snapshot, EngineHost& host,
                std::vector<NodeId>& destinations) override;
  /// One pool dispatch covers the matcher phase of the whole batch; the lazy
  /// phases then run per publication, so probe order — and with it every
  /// cached version — is exactly the do_match-loop one.
  void do_match_batch(std::span<const Publication* const> pubs, const VariableSnapshot* snapshot,
                      EngineHost& host, std::vector<std::vector<NodeId>>& destinations) override;

  /// Visit every stored part as fn(dest, part), shard by shard.
  template <class Fn>
  void for_each_part(Fn&& fn) {
    for (auto& storage : storage_) {
      for (auto& [dest, group] : storage.groups()) {
        for (auto& part : group.parts) fn(dest, part);
      }
    }
  }
  template <class Fn>
  void for_each_part(Fn&& fn) const {
    for (const auto& storage : storage_) {
      for (const auto& [dest, group] : storage.groups()) {
        for (const auto& part : group.parts) fn(dest, part);
      }
    }
  }

 private:
  friend Derived;  // only the engine itself constructs its skeleton
  explicit LazyEngine(const EngineConfig& config);

  [[nodiscard]] Storage& storage_for(SubscriptionId id) noexcept {
    return storage_[sharded_->shard_of(id)];
  }

  /// Route the matcher hits `m1` (marking static halves in their shard),
  /// then run the timed, parallel M2 phase; both append to `destinations`.
  void match_lazy(const Publication& pub, const std::vector<SubscriptionId>& m1,
                  const VariableSnapshot* snapshot, const VariableRegistry& registry,
                  SimTime now, std::vector<NodeId>& destinations);

  std::vector<Storage> storage_;  // one per matcher shard (same id partition)
  std::vector<ShardScratch> scratch_;
};

template <class Derived, class Extra>
LazyEngine<Derived, Extra>::LazyEngine(const EngineConfig& config) : BrokerEngine(config) {
  storage_.resize(shard_count());
  scratch_.resize(shard_count());
}

template <class Derived, class Extra>
std::size_t LazyEngine<Derived, Extra>::storage_size() const noexcept {
  std::size_t total = 0;
  for (const auto& storage : storage_) total += storage.size();
  return total;
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_add(const Installed& entry, EngineHost& host) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  const auto static_part = sub.static_predicates();
  auto& storage = storage_for(sub.id());
  auto part = storage.make_part(entry.sub, !static_part.empty());
  static_cast<Derived&>(*this).on_install(part, entry, host);
  if (part.has_static_part) matcher_->add(sub.id(), static_part);
  storage.add(std::move(part), entry.dest);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_remove_static(sub.id());
    return;
  }
  if (!sub.is_fully_evolving()) matcher_->remove(sub.id());
  storage_for(sub.id()).remove(sub.id(), entry.dest);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_match(const Publication& pub,
                                          const VariableSnapshot* snapshot, EngineHost& host,
                                          std::vector<NodeId>& destinations) {
  // M1: standard matcher over static parts and purely-static subscriptions
  // (parallel across shards inside the ShardedMatcher).
  m1_.clear();
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match(pub, m1_);
  }
  match_lazy(pub, m1_, snapshot, host.variables(), host.now(), destinations);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_match_batch(std::span<const Publication* const> pubs,
                                                const VariableSnapshot* snapshot,
                                                EngineHost& host,
                                                std::vector<std::vector<NodeId>>& destinations) {
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match_batch(pubs, m1_batch_);
  }
  const VariableRegistry& registry = host.variables();
  const SimTime now = host.now();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    match_lazy(*pubs[i], m1_batch_[i], snapshot, registry, now, destinations[i]);
  }
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::match_lazy(const Publication& pub,
                                            const std::vector<SubscriptionId>& m1,
                                            const VariableSnapshot* snapshot,
                                            const VariableRegistry& registry, SimTime now,
                                            std::vector<NodeId>& destinations) {
  for (auto& storage : storage_) storage.begin_match();
  for (const auto id : m1) {
    if (storage_for(id).note_m1(id)) continue;  // static half of a split subscription
    const Installed* entry = installed_entry(id);
    if (entry == nullptr) continue;
    // Purely-static match: forward, and settle the destination's group in
    // every shard (exact done-skip regardless of K).
    destinations.push_back(entry->dest);
    for (auto& storage : storage_) storage.mark_done(entry->dest);
  }

  // M2: probe the evolving parts, one worker per shard, with early exit once
  // a destination is known to need the publication.
  const ScopedTimer timer(costs_.lazy_eval);
  const ProbeContext ctx{snapshot, now, registry.global_version()};
  auto task = [&](std::size_t s) {
    ShardScratch& sc = scratch_[s];
    sc.dests.clear();
    Storage& storage = storage_[s];
    if (storage.size() == 0) return;
    rebind_publication_scope(sc.scope, pub, snapshot, registry, now);
    for (auto& [dest, group] : storage.groups()) {
      if (storage.done(group)) continue;
      for (auto& part : group.parts) {
        if (part.has_static_part && !storage.m1_hit(part)) continue;
        if (static_cast<Derived&>(*this).probe(part, pub, ctx, sc)) {
          sc.dests.push_back(dest);
          break;  // early exit: this (shard, destination) is settled
        }
      }
    }
  };
  if (storage_.size() == 1) {
    task(0);
  } else {
    ThreadPool::shared().run_indexed(storage_.size(), task);
  }
  for (ShardScratch& sc : scratch_) {
    destinations.insert(destinations.end(), sc.dests.begin(), sc.dests.end());
    costs_.lazy_evaluations += sc.lazy_evaluations;
    costs_.cache_hits += sc.cache_hits;
    costs_.cache_misses += sc.cache_misses;
    sc.lazy_evaluations = sc.cache_hits = sc.cache_misses = 0;
  }
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::export_audit_state(audit::EngineState& out) const {
  BrokerEngine::export_audit_state(out);
  for_each_part([&out](NodeId dest, const Part& part) {
    out.lazy_entries.push_back(audit::LazyEntry{part.id, dest});
  });
}

}  // namespace evps
