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
// Filter and refine (DESIGN.md §8). When the probe rule's verdict is a pure
// function of the publication (LEES), each shard also keeps a candidate
// filter: every evolving part is widened to its window envelope
// (window_envelope.hpp) and the envelope's finite bounds sit in a standard
// matcher keyed by the part's slot. A match then probes exactly only the
// parts that filter returns, plus the few parts no finite bound describes,
// which are scanned. The envelope contains every bound the probe can compute
// inside its window, so deliveries are those of the exhaustive scan; only
// probe counts and CPU move. Envelopes are (re)built in waves at match time,
// one per shard on its own worker, for parts that are new, whose window
// ended, or that read a discrete variable which changed; a part that stays
// indexed replaces its bounds through Matcher::rebound. Snapshot-mode
// probes evaluate at the publication's entry time, outside any window, so
// they always take the scan. Caching rules (CLEES, the hybrid) anchor a
// version at its first probe; probing fewer parts would change their
// deliveries, so they always scan.
//
// The engine supplies, as `Derived`:
//
//   * bool probe(Part&, const Publication&, const ProbeContext&,
//                ShardScratch&) — does this evolving part match? Runs on a
//     shard worker and may only touch the part and the worker's scratch;
//   * static constexpr bool kPureProbe — true iff probe's verdict is a pure
//     function of the publication, which enables the filter; the part state
//     `Extra` is then (or derives from) EnvelopeState;
//   * optionally on_install(Part&, const Installed&, EngineHost&), run on
//     each freshly built part before it is stored.
//
// Each skeleton is explicitly instantiated once, in its engine's .cpp next
// to the probe rule (the engine header declares it `extern template`). The
// rule is declared `inline` and defined only in that .cpp — no other
// translation unit instantiates the loop — so no out-of-line copy is needed
// and the rule inlines into the loop that calls it for every part.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "evolving/engine.hpp"
#include "evolving/esq.hpp"
#include "evolving/lazy_storage.hpp"
#include "evolving/window_envelope.hpp"

namespace evps {

/// Where a part's current window envelope put it in its shard's filter.
enum class EnvelopeUse : std::uint8_t {
  kNone,     // not enveloped yet, or always NaN: no candidate this window
  kIndexed,  // its finite bounds are in the filter
  kScanned,  // no finite bound: probed on every publication
};

/// Per-part filter bookkeeping of a pure probe rule.
struct EnvelopeState {
  std::uint64_t versions = 0;  // discrete_versions() when last enveloped
  EnvelopeUse where = EnvelopeUse::kNone;
};

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
    std::vector<SubscriptionId> candidates;  // filter hits (slots)
    std::uint64_t lazy_evaluations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t scan_probes = 0;
    std::uint64_t envelopes = 0;
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
  /// Install an evolving entry around its compiled part `preds`
  /// (compile_evolving): the part into its shard, any static half into the
  /// matcher.
  void install_part(const Installed& entry, std::vector<CompiledPredicate> preds,
                    EngineHost& host);
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

  /// One shard's candidate filter (pure probe rules only). Ids in `index`
  /// and `windows` are part slots.
  struct ShardFilter {
    MatcherPtr index;                    // finite envelope bounds
    EvolvingSubscriptionQueue windows;   // window ends; new parts are due at once
    std::vector<std::uint32_t> scanned;  // parts no finite bound describes
    std::vector<std::uint32_t> watched;  // parts reading a discrete variable
    std::uint64_t seen_version = 0;      // registry global version at the last wave
    SimTime last_wave = SimTime::from_micros(std::numeric_limits<std::int64_t>::min());
    std::vector<SubscriptionId> due;     // wave scratch
    std::vector<Predicate> bounds;       // wave scratch: one part's envelope
  };

  [[nodiscard]] Storage& storage_for(SubscriptionId id) noexcept {
    return storage_[sharded_->shard_of(id)];
  }

  /// Drop a part's filter entries before its slot is recycled.
  void forget(ShardFilter& filter, const Part& part)
    requires(Derived::kPureProbe);
  /// Re-envelope every due part of shard `s` (runs on its worker).
  void envelope_wave(std::size_t s, const VariableRegistry& registry, SimTime now,
                     ShardScratch& sc)
    requires(Derived::kPureProbe);
  /// Shard `s`'s M2 phase behind its filter: one wave, the filter match,
  /// then exact probes of the candidates and of the scanned parts.
  void filter_and_refine(std::size_t s, const Publication& pub, const ProbeContext& ctx,
                         const VariableRegistry& registry, ShardScratch& sc)
    requires(Derived::kPureProbe);

  /// Route the matcher hits `m1` (marking static halves in their shard),
  /// then run the timed, parallel M2 phase; both append to `destinations`.
  void match_lazy(const Publication& pub, const std::vector<SubscriptionId>& m1,
                  const VariableSnapshot* snapshot, const VariableRegistry& registry,
                  SimTime now, std::vector<NodeId>& destinations);

  std::vector<Storage> storage_;  // one per matcher shard (same id partition)
  std::vector<ShardScratch> scratch_;
  std::vector<ShardFilter> filters_;  // one per shard; empty unless kPureProbe
};

template <class Derived, class Extra>
LazyEngine<Derived, Extra>::LazyEngine(const EngineConfig& config) : BrokerEngine(config) {
  storage_.resize(shard_count());
  scratch_.resize(shard_count());
  if constexpr (Derived::kPureProbe) {
    static_assert(std::is_base_of_v<EnvelopeState, Extra>);
    filters_.resize(shard_count());
    for (auto& filter : filters_) filter.index = make_matcher(config.matcher);
  }
}

template <class Derived, class Extra>
std::size_t LazyEngine<Derived, Extra>::storage_size() const noexcept {
  std::size_t total = 0;
  for (const auto& storage : storage_) total += storage.size();
  return total;
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_add(const Installed& entry, EngineHost& host) {
  if (!entry.sub->is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  install_part(entry, compile_evolving(*entry.sub), host);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::install_part(const Installed& entry,
                                              std::vector<CompiledPredicate> preds,
                                              EngineHost& host) {
  const auto& sub = *entry.sub;
  const auto static_part = sub.static_predicates();
  const std::size_t s = sharded_->shard_of(sub.id());
  auto part = storage_[s].make_part(entry.sub, std::move(preds), !static_part.empty());
  static_cast<Derived&>(*this).on_install(part, entry, host);
  if (part.has_static_part) matcher_->add(sub.id(), static_part);
  if constexpr (Derived::kPureProbe) {
    // No envelope work here: the part is due at the shard's next wave.
    ShardFilter& filter = filters_[s];
    filter.windows.push(SubscriptionId{part.slot}, filter.last_wave);
    if (reads_discrete(part.preds)) filter.watched.push_back(part.slot);
  }
  storage_[s].add(std::move(part), entry.dest);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_remove_static(sub.id());
    return;
  }
  if (!sub.is_fully_evolving()) matcher_->remove(sub.id());
  const std::size_t s = sharded_->shard_of(sub.id());
  if constexpr (Derived::kPureProbe) {
    if (const Part* part = storage_[s].find(sub.id())) forget(filters_[s], *part);
  }
  storage_[s].remove(sub.id(), entry.dest);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::forget(ShardFilter& filter, const Part& part)
  requires(Derived::kPureProbe)
{
  const SubscriptionId id{part.slot};
  if (part.extra.where == EnvelopeUse::kIndexed) filter.index->remove(id);
  if (part.extra.where == EnvelopeUse::kScanned) std::erase(filter.scanned, part.slot);
  std::erase(filter.watched, part.slot);
  filter.windows.remove(id);
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::envelope_wave(std::size_t s, const VariableRegistry& registry,
                                               SimTime now, ShardScratch& sc)
  requires(Derived::kPureProbe)
{
  ShardFilter& filter = filters_[s];
  Storage& storage = storage_[s];
  auto& due = filter.due;
  due.clear();
  if (now < filter.last_wave) {
    // The clock went back: every window now opens too late. Rebuild all.
    for (const auto& [dest, group] : storage.groups()) {
      for (const auto& part : group.parts) due.push_back(SubscriptionId{part.slot});
    }
  } else {
    filter.windows.pop_due(now, due);
    // Stamps (the ones VES also reads) are only re-read when some variable
    // changed at all.
    if (registry.global_version() != filter.seen_version) {
      for (const auto slot : filter.watched) {
        if (discrete_versions(storage.part(slot).preds, registry) !=
            storage.part(slot).extra.versions) {
          due.push_back(SubscriptionId{slot});
        }
      }
    }
  }
  filter.last_wave = now;
  filter.seen_version = registry.global_version();
  if (due.empty()) return;
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());

  auto& bounds = filter.bounds;
  for (const auto id : due) {
    const auto slot = static_cast<std::uint32_t>(id.value());
    Part& part = storage.part(slot);
    const Subscription& sub = *part.sub;
    auto& state = part.extra;
    const EnvelopeUse was = state.where;
    if (was == EnvelopeUse::kScanned) std::erase(filter.scanned, slot);
    ++sc.envelopes;
    state.versions = discrete_versions(part.preds, registry);
    const Duration span = filter_window(sub, now, effective_mei(sub));
    const WindowEnvelope window{registry, now, sub.epoch(), span};
    filter.windows.push(id, saturating_add(now, span));
    // part.preds are the subscription's evolving predicates, in order.
    bounds.clear();
    bool never = false;
    std::size_t i = 0;
    for (const auto& p : sub.predicates()) {
      if (!p.is_evolving()) continue;
      never = !window.widen(p, part.preds[i++].program(), bounds);
      if (never) break;
    }
    state.where = EnvelopeUse::kNone;
    if (!never) {
      // Infinite bounds filter nothing; without a finite one, scan the part.
      std::erase_if(bounds,
                    [](const Predicate& b) { return !std::isfinite(*b.constant().numeric()); });
      state.where = bounds.empty() ? EnvelopeUse::kScanned : EnvelopeUse::kIndexed;
      if (bounds.empty()) filter.scanned.push_back(slot);
    }
    // rebound installs a part that enters the filter and replaces the bounds
    // of one that stays.
    if (state.where == EnvelopeUse::kIndexed) {
      filter.index->rebound(id, bounds);
    } else if (was == EnvelopeUse::kIndexed) {
      filter.index->remove(id);
    }
  }
}

template <class Derived, class Extra>
void LazyEngine<Derived, Extra>::filter_and_refine(std::size_t s, const Publication& pub,
                                                   const ProbeContext& ctx,
                                                   const VariableRegistry& registry,
                                                   ShardScratch& sc)
  requires(Derived::kPureProbe)
{
  envelope_wave(s, registry, ctx.now, sc);
  ShardFilter& filter = filters_[s];
  Storage& storage = storage_[s];
  sc.candidates.clear();
  filter.index->match(pub, sc.candidates);
  // Refine: skip settled destinations and split parts whose static half
  // missed M1, probe exactly, and settle the destination on a hit.
  auto refine = [&](std::uint32_t slot) {
    auto& group = storage.group_of(slot);
    Part& part = storage.part(slot);
    if (storage.done(group) || (part.has_static_part && !storage.m1_hit(part))) return;
    if (!static_cast<Derived&>(*this).probe(part, pub, ctx, sc)) return;
    sc.dests.push_back(group.dest);
    storage.settle(group);
  };
  for (const auto id : sc.candidates) refine(static_cast<std::uint32_t>(id.value()));
  const std::uint64_t filtered = sc.lazy_evaluations;
  for (const auto slot : filter.scanned) refine(slot);
  sc.scan_probes += sc.lazy_evaluations - filtered;
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
    if constexpr (Derived::kPureProbe) {
      if (snapshot == nullptr) {
        filter_and_refine(s, pub, ctx, registry, sc);
        return;
      }
    }
    const std::uint64_t probes_before = sc.lazy_evaluations;
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
    // Every probe a filtered rule makes outside its filter is a scan probe.
    if constexpr (Derived::kPureProbe) sc.scan_probes += sc.lazy_evaluations - probes_before;
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
    costs_.scan_probes += sc.scan_probes;
    costs_.envelopes += sc.envelopes;
    sc.lazy_evaluations = sc.cache_hits = sc.cache_misses = sc.scan_probes = sc.envelopes = 0;
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
