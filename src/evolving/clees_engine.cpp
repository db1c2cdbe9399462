#include "evolving/clees_engine.hpp"

#include "analysis/analyzer.hpp"
#include "common/thread_pool.hpp"

namespace evps {

CleesEngine::CleesEngine(const EngineConfig& config) : BrokerEngine(config) {
  storage_.resize(shard_count());
  shard_scratch_.resize(shard_count());
}

void CleesEngine::do_add(const Installed& entry, EngineHost& host) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  const auto static_part = sub.static_predicates();
  auto& storage = storage_for(sub.id());
  auto part = storage.make_part(entry.sub, !static_part.empty());
  // Derive the cache-window class once, at install time, instead of
  // re-deriving bounds per publication: provably-constant bounds never
  // need re-materialisation, t-independent bounds only when a registry
  // variable changed.
  const SubscriptionAnalysis analysis = analyze_subscription(sub, host.variables());
  part.extra.constant_bounds = analysis.verdict == Verdict::kConstant;
  part.extra.time_invariant = !analysis.time_dependent;
  if (part.has_static_part) matcher_->add(sub.id(), static_part);
  storage.add(std::move(part), entry.dest);
}

void CleesEngine::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_remove_static(sub.id());
    return;
  }
  if (!sub.is_fully_evolving()) matcher_->remove(sub.id());
  storage_for(sub.id()).remove(sub.id(), entry.dest);
}

void CleesEngine::process_m1(const std::vector<SubscriptionId>& m1,
                             std::vector<NodeId>& destinations) {
  for (const auto id : m1) {
    if (storage_for(id).note_m1(id)) continue;  // static half of a split subscription
    const Installed* entry = installed_entry(id);
    if (entry == nullptr) continue;
    destinations.push_back(entry->dest);
    for (auto& storage : storage_) storage.mark_done(entry->dest);
  }
}

void CleesEngine::lazy_eval_phase(const Publication& pub, const VariableSnapshot* snapshot,
                                  const VariableRegistry& registry, SimTime now,
                                  std::vector<NodeId>& destinations) {
  // Captured once: workers must not touch the host, and the registry version
  // cannot change while a match is in flight (variable updates are
  // main-thread events).
  const std::uint64_t global_version = registry.global_version();
  auto task = [&](std::size_t s) {
    ShardScratch& sc = shard_scratch_[s];
    sc.dests.clear();
    Storage& storage = storage_[s];
    if (storage.size() == 0) return;
    rebind_publication_scope(sc.scope, pub, snapshot, registry, now);
    for (auto& [dest, group] : storage.groups()) {
      if (storage.done(group)) continue;
      for (auto& part : group.parts) {
        if (part.has_static_part && !storage.m1_hit(part)) continue;

        bool matched = false;
        // Snapshot-consistency mode bypasses the cache: cached versions are
        // anchored at broker-local time, which a piggybacked snapshot
        // invalidates (the hybrid is future work in the paper).
        bool valid = snapshot == nullptr && now < part.extra.expires;
        if (!valid && snapshot == nullptr && part.extra.populated) {
          // Analysis-sized windows: past TT, a version is still *exact* (not
          // merely tolerated staleness) when re-materialisation would provably
          // reproduce it bit-for-bit.
          valid = part.extra.constant_bounds ||
                  (part.extra.time_invariant && global_version == part.extra.seen_version);
        }
        if (valid) {
          ++sc.cache_hits;
          matched = cached_bounds_match(part.preds, part.extra.bounds, pub);
        } else {
          ++sc.cache_misses;
          ++sc.lazy_evaluations;
          sc.scope.set_epoch(part.sub->epoch());
          auto& bounds = snapshot == nullptr ? part.extra.bounds : sc.snapshot_bounds;
          materialize_bounds(part.preds, sc.scope, sc.stack, bounds);
          matched = cached_bounds_match(part.preds, bounds, pub);
          if (snapshot == nullptr) {
            part.extra.expires = now + effective_tt(*part.sub);
            part.extra.populated = true;
            part.extra.seen_version = global_version;
          }
        }
        if (matched) {
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
  for (ShardScratch& sc : shard_scratch_) {
    destinations.insert(destinations.end(), sc.dests.begin(), sc.dests.end());
    costs_.lazy_evaluations += sc.lazy_evaluations;
    costs_.cache_hits += sc.cache_hits;
    costs_.cache_misses += sc.cache_misses;
    sc.lazy_evaluations = sc.cache_hits = sc.cache_misses = 0;
  }
}

void CleesEngine::do_match(const Publication& pub, const VariableSnapshot* snapshot,
                           EngineHost& host, std::vector<NodeId>& destinations) {
  m1_.clear();
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match(pub, m1_);
  }
  for (auto& storage : storage_) storage.begin_match();
  process_m1(m1_, destinations);

  const ScopedTimer timer(costs_.lazy_eval);
  lazy_eval_phase(pub, snapshot, host.variables(), host.now(), destinations);
}

void CleesEngine::do_match_batch(std::span<const Publication* const> pubs,
                                 const VariableSnapshot* snapshot, EngineHost& host,
                                 std::vector<std::vector<NodeId>>& destinations) {
  // Matcher phase amortised over the whole batch (one pool dispatch); lazy
  // phases stay per publication so probe order — and therefore the TT cache
  // trajectory — is exactly the do_match-loop one.
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match_batch(pubs, m1_batch_);
  }
  const VariableRegistry& registry = host.variables();
  const SimTime now = host.now();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    for (auto& storage : storage_) storage.begin_match();
    process_m1(m1_batch_[i], destinations[i]);
    const ScopedTimer timer(costs_.lazy_eval);
    lazy_eval_phase(*pubs[i], snapshot, registry, now, destinations[i]);
  }
}

void CleesEngine::export_audit_state(audit::EngineState& out) const {
  BrokerEngine::export_audit_state(out);
  for (const Storage& storage : storage_) {
    for (const auto& [dest, group] : storage.groups()) {
      for (const Storage::Part& part : group.parts) {
        out.lazy_entries.push_back(audit::LazyEntry{part.id, dest});
      }
    }
  }
}

}  // namespace evps
