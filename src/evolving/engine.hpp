// Broker-side subscription engine interface.
//
// A BrokerEngine owns everything a broker needs to match publications
// against installed subscriptions: the standard matcher plus, for the
// evolving designs, the evolution machinery of Section IV/V:
//
//   * StaticEngine     — plain matcher; evolving subscriptions rejected.
//                        Used by the resubscription baseline, and by the
//                        parametric-subscriptions baseline [12], whose
//                        in-place updates are BrokerEngine::update.
//   * VesEngine        — Versioned Evolving Subscriptions: materialised
//                        versions kept in the matcher, refreshed per MEI via
//                        the Evolving Subscription Queue.
//   * LeesEngine       — Lazy Evaluation: evolving predicates evaluated on
//                        every publication (LEME).
//   * CleesEngine      — Cached lazy evaluation with time threshold TT.
//   * HybridEngine     — adaptive per-subscription switch between
//                        timer-refreshed versions (VES-like) and lazy
//                        caching (CLEES-like); the paper's future work.
//
// The three lazy engines share one sharded skeleton (lazy_engine.hpp) and
// differ only in their per-part probe rule.
//
// Matching is destination-oriented: the broker registers each subscription
// with the next hop (client or neighbour broker) it was received from, and
// match() returns the set of destinations the publication must be forwarded
// to. This enables the paper's per-client early-exit optimisation in LEES
// (Section VI-C, Figure 10(b)).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/audit/snapshot.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "expr/variable_registry.hpp"
#include "matching/matcher.hpp"
#include "matching/sharded_matcher.hpp"
#include "message/messages.hpp"
#include "message/subscription.hpp"
#include "metrics/shard_counters.hpp"
#include "stats/online_stats.hpp"

namespace evps {

/// Services the hosting broker provides to an engine: virtual time, timer
/// scheduling and the broker-local evolution variable registry.
class EngineHost {
 public:
  virtual ~EngineHost() = default;
  [[nodiscard]] virtual SimTime now() const = 0;
  /// Schedule `fn` to run after `delay` of virtual time.
  virtual void schedule(Duration delay, std::function<void()> fn) = 0;
  [[nodiscard]] virtual VariableRegistry& variables() = 0;
  [[nodiscard]] const VariableRegistry& variables() const {
    return const_cast<EngineHost*>(this)->variables();
  }
};

/// Cost accounting (paper metrics 3 and 4, Section VI-A).
struct EngineCosts {
  /// Per-operation time spent maintaining subscription versions
  /// (VES evolution updates, parametric updates), in seconds.
  OnlineStats maintenance;
  /// Per-publication time spent on lazy evaluation (LEES/CLEES), in seconds.
  OnlineStats lazy_eval;
  /// Per-publication time spent in the standard matcher, in seconds.
  OnlineStats match;

  std::uint64_t evolutions = 0;        // VES version replacements
  std::uint64_t lazy_evaluations = 0;  // LEES/CLEES on-demand evaluations
  std::uint64_t cache_hits = 0;        // CLEES
  std::uint64_t cache_misses = 0;      // CLEES
  /// LEES probes its envelope filter did not select: parts no finite
  /// envelope bound describes, and every probe in snapshot mode.
  std::uint64_t scan_probes = 0;
  std::uint64_t envelopes = 0;  // LEES window envelopes (re)built for the filter

  /// Total engine processing time in seconds (maintenance + lazy + match).
  [[nodiscard]] double total_seconds() const noexcept {
    return maintenance.sum() + lazy_eval.sum() + match.sum();
  }

  void reset() {
    *this = EngineCosts{};
  }
};

enum class EngineKind { kStatic, kParametric, kVes, kLees, kClees, kHybrid };

[[nodiscard]] const char* to_string(EngineKind kind) noexcept;

struct EngineConfig {
  EngineKind kind = EngineKind::kStatic;
  MatcherKind matcher = MatcherKind::kCounting;
  /// Fallback MEI/TT for subscriptions that do not specify one.
  Duration default_mei = Duration::seconds(1.0);
  Duration default_tt = Duration::seconds(1.0);
  /// VES extension (Section IV-A): versions installed for *broker* next hops
  /// are widened to cover the whole upcoming MEI window, trading false
  /// positives on the forwarding path for the elimination of staleness
  /// false negatives. Versions for directly attached subscribers stay exact.
  bool overestimate_forwarding = false;
  /// Matcher shards (ShardedMatcher): subscriptions are hash-partitioned
  /// across this many independent matcher instances and match() fans out to
  /// the shared worker pool. 0 resolves to the EVPS_MATCHER_THREADS
  /// environment variable (default 1). Results are bit-identical for every
  /// value; 1 is the exact single-threaded layout.
  std::size_t matcher_threads = 0;
};

/// Refcounted install-sharing groups: engines install one physical matcher/
/// storage entry per group of interchangeable subscriptions, which only
/// shrinks the matcher population. Keys must be injective over delivery
/// behaviour: two ids may share a key only when installing either produces
/// the same matches to the same destination.
/// The first member of a group is its *canonical* id — the one physically
/// installed; when it leaves, the table nominates a surviving member to
/// reinstall under.
class DedupTable {
 public:
  /// Track `id` under `key`. True when `id` opened the group (the caller
  /// must physically install it).
  bool add(SubscriptionId id, std::string key);

  struct RemoveAction {
    bool tracked = false;    ///< id was known to this table
    bool uninstall = false;  ///< id was canonical: physically uninstall it
    /// Surviving member to reinstall under (invalid when the group died).
    SubscriptionId reinstall = SubscriptionId::invalid();
  };
  RemoveAction remove(SubscriptionId id);

  [[nodiscard]] std::size_t members() const noexcept { return key_of_.size(); }
  [[nodiscard]] std::size_t groups() const noexcept { return groups_.size(); }

  /// Visit every group as (key, members); members.front() is the canonical
  /// (physically installed) id. Snapshot export support (analysis/audit).
  template <typename Fn>
  void for_each_group(Fn&& fn) const {
    for (const auto& [key, members] : groups_) fn(key, members);
  }
  /// Physical installs currently saved by sharing.
  [[nodiscard]] std::size_t suppressed() const noexcept {
    return key_of_.size() - groups_.size();
  }

 private:
  std::unordered_map<std::string, std::vector<SubscriptionId>> groups_;
  std::unordered_map<SubscriptionId, std::string> key_of_;
};

/// Dedup key for a fully-static subscription installed towards `dest`:
/// destination + order-independent, bit-exact predicate serialization
/// (int64s in decimal, doubles as bit patterns, strings length-prefixed).
[[nodiscard]] std::string static_dedup_key(NodeId dest, const std::vector<Predicate>& preds);

class BrokerEngine {
 public:
  explicit BrokerEngine(const EngineConfig& config);
  virtual ~BrokerEngine() = default;
  BrokerEngine(const BrokerEngine&) = delete;
  BrokerEngine& operator=(const BrokerEngine&) = delete;

  /// Install `sub` with next-hop `dest`. `host` supplies time/timers (may be
  /// needed immediately for VES). `dest_is_broker` marks forwarding hops
  /// (enables the overestimation extension). Duplicate ids throw.
  void add(const SubscriptionPtr& sub, NodeId dest, EngineHost& host,
           bool dest_is_broker = false);

  /// Remove a subscription; returns false if unknown.
  bool remove(SubscriptionId id, EngineHost& host);

  /// Parametric update: replace the constant operand of predicate i with
  /// new_values[i] (engaged entries only). The subscription keeps its id and
  /// destination. Returns false if unknown.
  bool update(SubscriptionId id, const std::vector<std::optional<Value>>& new_values,
              EngineHost& host);

  /// Match `pub` and return the destinations it must be forwarded to
  /// (deduplicated, ascending). `snapshot` carries piggybacked variable
  /// values in snapshot-consistency mode: when present, evolving predicates
  /// evaluate at the publication's entry time with those values.
  void match(const Publication& pub, const VariableSnapshot* snapshot, EngineHost& host,
             std::vector<NodeId>& destinations);

  /// Batch variant: destinations[i] receives the deduplicated ascending
  /// destinations of *pubs[i], exactly as if match() had been called per
  /// publication with the same snapshot — engines override the underlying
  /// hook only to amortise pool dispatches, never to change results. The
  /// batch is a span of pointers so the broker can hand over shared
  /// (refcounted) publications without staging copies. `destinations` is
  /// grown to pubs.size() if needed (never shrunk, so the inner vectors keep
  /// their capacity); used entries are cleared first.
  void match_batch(std::span<const Publication* const> pubs, const VariableSnapshot* snapshot,
                   EngineHost& host, std::vector<std::vector<NodeId>>& destinations);

  /// Convenience overload for contiguous publications (tests, benches):
  /// builds a pointer span over grow-only scratch and delegates.
  void match_batch(std::span<const Publication> pubs, const VariableSnapshot* snapshot,
                   EngineHost& host, std::vector<std::vector<NodeId>>& destinations);

  [[nodiscard]] std::size_t size() const noexcept { return subs_.size(); }
  [[nodiscard]] bool contains(SubscriptionId id) const noexcept { return subs_.contains(id); }
  [[nodiscard]] const EngineCosts& costs() const noexcept { return costs_; }
  void reset_costs() noexcept { costs_.reset(); }
  [[nodiscard]] EngineKind kind() const noexcept { return config_.kind; }

  /// Physical matcher entries (shared installs counted once).
  [[nodiscard]] std::size_t matcher_population() const noexcept { return matcher_->size(); }

  /// Matcher shards backing this engine (EngineConfig::matcher_threads).
  [[nodiscard]] std::size_t shard_count() const noexcept { return sharded_->shard_count(); }
  /// Physical matcher entries per shard (occupancy metric).
  [[nodiscard]] std::vector<std::size_t> shard_occupancy() const {
    return sharded_->shard_sizes();
  }
  [[nodiscard]] const BatchCounters& batch_counters() const noexcept { return batch_counters_; }
  /// Installs currently elided by identical-subscription sharing.
  [[nodiscard]] virtual std::size_t deduped_installs() const noexcept {
    return static_dedup_.suppressed();
  }

  /// Destination registered for `id` (invalid NodeId if unknown).
  [[nodiscard]] NodeId destination_of(SubscriptionId id) const noexcept;

  /// The (current) subscription object installed under `id`, or null.
  [[nodiscard]] SubscriptionPtr subscription_of(SubscriptionId id) const noexcept;

  /// Export the engine's logical table and physical footprint into `out`
  /// (analysis/audit snapshots). The base fills kind, dedup flag, the
  /// installed table, the matcher's id population and the static dedup
  /// groups; lazy engines override to append their storage entries and lazy
  /// dedup groups (calling the base first).
  virtual void export_audit_state(audit::EngineState& out) const;

 protected:
  struct Installed {
    SubscriptionPtr sub;
    NodeId dest;
    bool dest_is_broker = false;
  };

  // Subclass hooks. The base class maintains subs_ bookkeeping.
  virtual void do_add(const Installed& entry, EngineHost& host) = 0;
  virtual void do_remove(const Installed& entry, EngineHost& host) = 0;
  /// Matching hook. The default is matcher-only (static, parametric and
  /// VES): the matcher result mapped to destinations. Snapshots are ignored
  /// there — they cannot retroactively change materialised versions
  /// (Section V-D notes snapshots "render VES ineffective").
  virtual void do_match(const Publication& pub, const VariableSnapshot* snapshot,
                        EngineHost& host, std::vector<NodeId>& destinations);

  /// Batch hook. Overrides must produce the destinations a do_match loop
  /// would (pre-dedup order may differ; the caller sorts). `destinations` is
  /// already sized and cleared. The default is matcher-only: one sharded
  /// matcher dispatch for the whole batch, then per-publication id ->
  /// destination mapping; the matcher timer records once per batch.
  virtual void do_match_batch(std::span<const Publication* const> pubs,
                              const VariableSnapshot* snapshot, EngineHost& host,
                              std::vector<std::vector<NodeId>>& destinations);

  /// Rebind `scope` for evaluating evolving parts against `pub`. In
  /// snapshot mode the scope is anchored at the publication entry time and
  /// the snapshot values shadow the local registry; otherwise it evaluates
  /// at `now`. Callers select the subscription epoch per evolving part via
  /// EvalScope::set_epoch. Allocation-free once the variable universe is
  /// known.
  static void rebind_publication_scope(EvalScope& scope, const Publication& pub,
                                       const VariableSnapshot* snapshot,
                                       const VariableRegistry& registry, SimTime now);

  [[nodiscard]] const std::unordered_map<SubscriptionId, Installed>& installed() const noexcept {
    return subs_;
  }

  /// Installed entry for a matcher-returned id, or null when the matcher and
  /// the installed table have desynchronised (a bug — asserts in debug
  /// builds; release builds skip the stale id instead of throwing).
  [[nodiscard]] const Installed* installed_entry(SubscriptionId id) const noexcept;

  /// Effective MEI/TT for a subscription (subscription value, or config
  /// default when the subscription carries a non-positive one).
  [[nodiscard]] Duration effective_mei(const Subscription& sub) const noexcept;
  [[nodiscard]] Duration effective_tt(const Subscription& sub) const noexcept;

  /// Install a FULLY-static subscription into the matcher, sharing one
  /// matcher entry per identical (destination, predicates) group. Sound
  /// because the matcher result is only ever mapped to the canonical
  /// member's destination, which all members share.
  /// Must not be used for split (static half of evolving) installs: those
  /// are keyed by subscription id in the lazy stores (note_m1).
  void matcher_add_static(const Installed& entry);
  /// Removal counterpart: keeps a canonical member installed while the
  /// group is non-empty. Falls back to a plain matcher remove for untracked
  /// ids (dedup disabled).
  void matcher_remove_static(SubscriptionId id);

  DedupTable static_dedup_;

  EngineConfig config_;
  MatcherPtr matcher_;
  /// matcher_ downcast (the engine always builds a ShardedMatcher; K=1 is
  /// a zero-overhead passthrough to a single underlying matcher).
  ShardedMatcher* sharded_ = nullptr;
  EngineCosts costs_;
  BatchCounters batch_counters_;

  // Scratch shared by the subclasses so that steady-state matching never
  // allocates: the matcher result buffers, plus the evaluation scope
  // (rebound, not rebuilt, per use) and the value stack of compiled
  // expression programs for main-thread maintenance (VES versions, hybrid
  // refreshes).
  std::vector<SubscriptionId> m1_;
  /// Batch counterpart of m1_: per-publication hit lists (grow-only).
  std::vector<std::vector<SubscriptionId>> m1_batch_;
  /// Pointer staging for the contiguous match_batch overload (grow-only).
  std::vector<const Publication*> ptr_scratch_;
  EvalScope scope_;
  std::vector<double> eval_stack_;

  /// RAII timer recording into an OnlineStats (seconds).
  class ScopedTimer {
   public:
    explicit ScopedTimer(OnlineStats& target) noexcept
        : target_(target), start_(std::chrono::steady_clock::now()) {}
    ~ScopedTimer() {
      const auto end = std::chrono::steady_clock::now();
      target_.add(std::chrono::duration<double>(end - start_).count());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    OnlineStats& target_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  std::unordered_map<SubscriptionId, Installed> subs_;
};

using BrokerEnginePtr = std::unique_ptr<BrokerEngine>;

[[nodiscard]] BrokerEnginePtr make_engine(const EngineConfig& config);

}  // namespace evps
