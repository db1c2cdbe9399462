// Quiesced whole-overlay state snapshots (DESIGN.md §15).
//
// A BrokerState is a passive, self-contained copy of everything one broker
// knows that bears on routing soundness: the routing table (per-subscription
// forward lists), the advertisement table, the covering forest, the engine's
// installed-subscription table plus its *physical* footprint (matcher slots,
// lazy-storage entries, dedup groups), the pending batch buffers, and the
// evolution-variable state the covering proofs were made under. An
// OverlaySnapshot is one BrokerState per broker, taken at a quiesce point
// (no messages in flight).
//
// The snapshot is the contract between the brokers and the OverlayAuditor
// (auditor.hpp): it deliberately contains no live pointers into broker
// internals, so auditing can never perturb the system, mutation tests can
// corrupt snapshots freely, and a snapshot can be serialised for offline
// analysis. Everything is normalised into a canonical order so re-exporting
// an unchanged overlay yields a bit-identical snapshot
// (tests/test_snapshot_export.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "expr/variable_registry.hpp"
#include "message/advertisement.hpp"
#include "message/subscription.hpp"

namespace evps::audit {

/// One engine-installed subscription (BrokerEngine's bookkeeping view).
struct InstalledSub {
  SubscriptionPtr sub;
  NodeId dest;                  ///< next hop (client or neighbour broker)
  bool dest_is_broker = false;  ///< forwarding hop (vs. local delivery)
  /// Predicate split, pre-derived so the auditor's accounting model does not
  /// re-classify: engines route installs by these exact counts.
  std::size_t static_preds = 0;
  std::size_t evolving_preds = 0;

  [[nodiscard]] bool evolving() const noexcept { return evolving_preds > 0; }
  [[nodiscard]] bool fully_evolving() const noexcept {
    return evolving_preds > 0 && static_preds == 0;
  }
};

/// One refcounted install-sharing group (DedupTable). `members` preserves
/// the table's order: the FIRST member is the canonical id — the one
/// physically installed in the matcher / lazy storage.
struct DedupGroup {
  std::string key;
  std::vector<SubscriptionId> members;
  /// True for LEES's fully-evolving-part sharing (lazy_dedup_); false for
  /// the static-predicate groups every engine keeps.
  bool lazy = false;
};

/// One evolving part held in a lazy store (LEES LEME / CLEES storage /
/// hybrid adaptive store), keyed by owning subscription and destination.
struct LazyEntry {
  SubscriptionId id;
  NodeId dest;
};

/// The engine's logical table plus its physical footprint.
struct EngineState {
  std::string kind;  ///< to_string(EngineKind)
  std::map<SubscriptionId, InstalledSub> installed;
  /// Ids physically present in the (sharded) matcher, ascending.
  std::vector<SubscriptionId> matcher_ids;
  /// Evolving parts physically present in the lazy stores.
  std::vector<LazyEntry> lazy_entries;
  /// Install-sharing groups (static for every engine, plus LEES lazy).
  std::vector<DedupGroup> dedup_groups;
};

/// One covering-forest entry. An invalid parent marks a root.
struct ForestNode {
  SubscriptionId id;
  SubscriptionId parent = SubscriptionId::invalid();
  std::vector<SubscriptionId> children;  ///< non-empty for roots only
};

/// Routing-table row: the broker neighbours `id` was forwarded to.
struct RouteEntry {
  SubscriptionId id;
  std::vector<NodeId> forwards;
};

/// Advertisement-table row with the neighbour it arrived from (`from` is a
/// client neighbour exactly at the advertisement's origin broker).
struct AdvertEntry {
  MessageId id;
  std::shared_ptr<const Advertisement> adv;
  NodeId from;
};

/// A link-batcher slot with buffered publications (quiescence violations:
/// at a barrier every slot must be empty, so only non-empty slots export).
struct PendingLink {
  NodeId dest;
  std::size_t pending = 0;
};

/// Evolution-variable state the broker's covering/analysis verdicts were
/// made under: declared range and latest value (both optional).
struct VariableState {
  std::string name;
  bool declared = false;
  double lo = 0.0;
  double hi = 0.0;
  bool has_value = false;
  double value = 0.0;
};

struct BrokerState {
  std::string name;
  NodeId node;
  std::string routing;  ///< "flooding" | "advertisement"
  bool covering_enabled = false;
  std::vector<NodeId> broker_neighbors;
  std::vector<NodeId> client_neighbors;
  std::vector<RouteEntry> routes;
  std::vector<AdvertEntry> adverts;
  std::vector<ForestNode> forest;
  EngineState engine;
  std::vector<PendingLink> pending_links;
  std::vector<VariableState> variables;

  [[nodiscard]] const InstalledSub* find_installed(SubscriptionId id) const {
    const auto it = engine.installed.find(id);
    return it == engine.installed.end() ? nullptr : &it->second;
  }
};

struct OverlaySnapshot {
  std::vector<BrokerState> brokers;

  /// Sort every container into canonical order (brokers by node id, routes/
  /// forest/adverts/variables by key, forward lists ascending). Dedup-group
  /// member order is preserved — the canonical member must stay first.
  void normalize();

  [[nodiscard]] const BrokerState* find(NodeId node) const;
};

/// Deterministic text rendering of a normalised snapshot: two exports of an
/// unchanged overlay compare equal as strings. Also the debugging view.
[[nodiscard]] std::string canonical_text(const OverlaySnapshot& snap);

/// Reconstruct a broker-local VariableRegistry from exported variable state
/// (declared ranges first, then values at t=0). `extra_declarations` lets
/// the auditor merge declarations from other brokers for variables this
/// broker never declared locally (declarations are broker-local contract
/// metadata, but covering witnesses may need a peer's contract); a merged
/// declaration that contradicts a local value is skipped, never applied.
[[nodiscard]] VariableRegistry rebuild_registry(
    const BrokerState& broker, const std::vector<VariableState>& extra_declarations = {});

}  // namespace evps::audit
