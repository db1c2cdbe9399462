// A content-based publish/subscribe broker (PADRES-style, Section III-A).
//
// Brokers form an acyclic overlay. Each client connects to exactly one
// broker. Subscriptions are disseminated either by flooding or towards
// matching advertisements; publications follow the reverse paths of the
// subscriptions they match. The broker delegates all matching (including
// evolving-subscription handling) to its BrokerEngine and acts as the
// EngineHost, supplying virtual time, timers and the broker-local evolution
// variable registry.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/covering_index.hpp"
#include "broker/link_batcher.hpp"
#include "common/ids.hpp"
#include "evolving/engine.hpp"
#include "expr/variable_registry.hpp"
#include "metrics/analysis_counters.hpp"
#include "metrics/covering_counters.hpp"
#include "sim/network.hpp"

namespace evps {

enum class RoutingMode { kFlooding, kAdvertisement };

/// What the broker does with subscribe-time static analysis verdicts
/// (analysis/analyzer.hpp).
enum class AnalysisPolicy {
  kOff,      ///< analysis not run (engine install-gate verification remains)
  kWarn,     ///< log and count verdicts, install everything as-is
  kEnforce,  ///< reject malformed/unsatisfiable, fold constant, flag uncovered
};

struct BrokerConfig {
  EngineConfig engine;
  RoutingMode routing = RoutingMode::kFlooding;
  /// Piggyback a snapshot of evolution-variable values on publications at
  /// their entry broker (Section V-D extension; effective for LEES/CLEES).
  bool snapshot_consistency = false;
  /// Subscribe-time static analysis. Enforcement is behaviour-preserving for
  /// well-formed satisfiable subscriptions: verdicts beyond kOk only fire
  /// when provable from declared variable ranges, and constant folds are
  /// bit-identical to lazy evaluation.
  AnalysisPolicy analysis = AnalysisPolicy::kEnforce;
  /// Covering-based subscription routing (analysis/covering_index.hpp):
  /// suppress forwarding a subscription towards neighbours its covering root
  /// already reaches, retract newly covered roots, and re-disseminate
  /// covered subscriptions when their coverer is removed or updated
  /// (uncover-on-remove). Delivery sets are unchanged — the suppressed
  /// directions are provably served by the root for every reachable
  /// evolution-variable assignment.
  bool covering = false;
  /// Octagon refinement of the covering check (analysis/relational.hpp):
  /// when the per-attribute shapes cannot decide a pair, prove covering
  /// relationally over `±attr ± var <= c` constraints — cross-attribute
  /// shapes like moving AoIs become suppressible. Only consulted when
  /// `covering` is on; the refinement only ever strengthens kUnknown to a
  /// proved kCovers, so delivery sets remain unchanged.
  bool relational_covering = true;
  /// Link batching (DESIGN.md §14): buffer up to this many publications per
  /// outgoing link (neighbour forward or client delivery) and send them as
  /// one PublishBatchMsg/DeliveryBatchMsg. 0 resolves to the EVPS_LINK_BATCH
  /// environment variable (default 1, the per-message path). With a zero
  /// flush deadline, deliveries, timestamps and per-link order are
  /// bit-identical to the per-message path. The receiving broker matches
  /// each inbound PublishBatchMsg with one BrokerEngine::match_batch call.
  std::size_t link_batch_size = 0;
  /// Maximum virtual time a publication may wait in a link buffer. Zero (the
  /// default) flushes in the same virtual instant — the equivalence-
  /// preserving policy. Positive deadlines trade bounded delivery lateness
  /// for fuller batches.
  Duration link_flush_deadline = Duration::zero();
  /// Account codec wire bytes per flushed message in the link counters
  /// (costs a serialization pass per sent message; benches only).
  bool measure_link_bytes = false;
};

struct BrokerStats {
  std::uint64_t received_total = 0;
  /// The paper's primary metric: subscription-related messages received
  /// (subscribe + unsubscribe + subscription update), Section VI-A1.
  std::uint64_t subscription_msgs = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;
  std::uint64_t sub_updates = 0;
  std::uint64_t publications = 0;
  std::uint64_t advertisements = 0;
  std::uint64_t var_updates = 0;
  std::uint64_t pubs_forwarded = 0;
  std::uint64_t deliveries = 0;

  void reset() { *this = BrokerStats{}; }
};

class Broker final : public NetworkNode, public EngineHost {
 public:
  Broker(std::string name, Network& net, BrokerConfig config);
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Link two brokers with the given latency. The overlay must stay acyclic.
  static void connect(Broker& a, Broker& b, Duration latency);

  /// Classify `client` as a directly-attached client endpoint. Called by
  /// PubSubClient::connect, which creates the network link.
  void accept_client(NodeId client);

  // --- EngineHost ----------------------------------------------------------
  [[nodiscard]] SimTime now() const override { return net_.simulator().now(); }
  void schedule(Duration delay, std::function<void()> fn) override {
    net_.simulator().after(delay, std::move(fn));
  }
  [[nodiscard]] VariableRegistry& variables() override { return registry_; }

  /// Set an evolution variable on this broker and flood the new value to all
  /// other brokers (control-plane propagation). Clients are not notified.
  void set_variable(const std::string& name, double value);

  /// Set an evolution variable locally without propagation (e.g. per-broker
  /// bandwidth, or locally-counted elapsed time).
  void set_variable_local(const std::string& name, double value);

  /// Broker self-protection (Section III-C): every `interval` until `until`,
  /// set the local evolution variable `name` to this broker's outgoing
  /// message rate (deliveries + forwarded publications per second) over the
  /// last interval. Subscriptions can then self-throttle, e.g.
  ///   distance < maxDist * (maxBw - outgoingBw)
  /// matches everything when idle and nothing at full load.
  /// The monitor timer captures this broker; it is cancelled automatically
  /// when the broker is destroyed (the returned handle allows earlier
  /// cancellation and may be discarded).
  TimerHandle enable_load_monitor(const std::string& name, Duration interval, SimTime until);

  // --- NetworkNode -----------------------------------------------------------
  void on_message(const Envelope& env) override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] BrokerEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const BrokerEngine& engine() const noexcept { return *engine_; }
  [[nodiscard]] const BrokerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AnalysisCounters& analysis_counters() const noexcept {
    return analysis_counters_;
  }
  [[nodiscard]] const CoveringCounters& covering_counters() const noexcept {
    return covering_counters_;
  }
  /// Covering pair-analysis stats; zeroes when covering routing is off.
  [[nodiscard]] CoverStats covering_stats() const noexcept {
    return covering_ ? covering_->stats() : CoverStats{};
  }
  /// The covering forest (null when BrokerConfig::covering is off).
  [[nodiscard]] const CoveringIndex* covering_index() const noexcept { return covering_.get(); }
  void reset_stats() noexcept { stats_.reset(); }
  /// What this broker's link batcher put on the wire (DESIGN.md §14).
  [[nodiscard]] const LinkBatchCounters& link_counters() const noexcept {
    return link_batcher_.counters();
  }
  [[nodiscard]] const BrokerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t subscription_count() const noexcept { return engine_->size(); }

  /// Export this broker's complete routing-relevant state for offline
  /// verification (analysis/audit): routing table, advertisement table,
  /// covering forest, engine physical footprint, pending link buffers and
  /// evolution-variable state. Purely observational — never perturbs the
  /// broker. The result is NOT normalized; see OverlaySnapshot::normalize.
  [[nodiscard]] audit::BrokerState export_snapshot() const;

 private:
  void handle_subscribe(const SubscribeMsg& msg, NodeId from);
  void handle_unsubscribe(const UnsubscribeMsg& msg, NodeId from);
  void handle_update(const SubscriptionUpdateMsg& msg, NodeId from);
  /// Match one publication on arrival and forward it.
  void handle_publish(PublishMsg msg, NodeId from);
  /// Match an inbound link batch with one engine batch call, then forward
  /// each publication in arrival order.
  void handle_publish_batch(const PublishBatchMsg& msg, NodeId from);
  /// Flush pending batched publications towards `to`, then send `msg`: every
  /// non-batchable (control / snapshot-carrying) message goes through this
  /// barrier so per-link relative order matches the per-message path.
  void send_to(NodeId to, Message msg);
  /// Forward `msg` to `destinations` (skipping `from`), counting stats.
  /// Snapshot-free publications route through the link batcher;
  /// snapshot-carrying ones bypass it (each evaluates under its own
  /// snapshot) behind the order-preserving barrier.
  void forward_publication(const PublishMsg& msg, NodeId from,
                           const std::vector<NodeId>& destinations);
  void handle_advertise(const AdvertiseMsg& msg, NodeId from);
  void handle_unadvertise(const UnadvertiseMsg& msg, NodeId from);
  void handle_var_update(const VarUpdateMsg& msg, NodeId from);

  /// Broker neighbours a new subscription must be forwarded to.
  [[nodiscard]] std::vector<NodeId> subscription_forward_targets(const Subscription& sub,
                                                                 NodeId from) const;

  /// Judge `sub` from its subscribe-time summary per BrokerConfig::analysis.
  /// Returns the subscription to install/forward (possibly a constant fold)
  /// or null when it must be rejected.
  [[nodiscard]] SubscriptionPtr analyze_incoming(const SubscriptionPtr& sub,
                                                 const SubscriptionSummary& summary);

  /// Uncover-on-remove: forward each promoted subscription towards every
  /// neighbour it now needs (fresh targets minus directions already sent).
  /// Must run BEFORE the coverer's unsubscribe/update is forwarded —
  /// per-link FIFO then guarantees upstream brokers install the promoted
  /// subscription before the coverer disappears (no delivery gap).
  void resubscribe_promoted(const std::vector<SubscriptionId>& promoted);
  /// Retract a freshly demoted root: unsubscribe it from the directions its
  /// new coverer was just forwarded to (coverer's subscribe is already
  /// queued ahead on those links).
  void retract_demoted(const std::vector<SubscriptionId>& demoted,
                       const std::vector<NodeId>& coverer_forwards);

  Network& net_;
  std::string name_;
  BrokerConfig config_;
  VariableRegistry registry_;
  BrokerEnginePtr engine_;
  std::set<NodeId> broker_neighbors_;
  std::set<NodeId> client_neighbors_;
  /// Broker neighbours each subscription was forwarded to; unsubscribes and
  /// updates follow the same paths.
  std::unordered_map<SubscriptionId, std::vector<NodeId>> sub_forwards_;
  /// An advertisement with the neighbour it arrived from and its shape,
  /// built once on arrival for every overlap check against it.
  struct Advert {
    std::shared_ptr<const Advertisement> adv;
    NodeId from;
    SubscriptionShape shape;
  };
  std::map<MessageId, Advert> adverts_;
  /// Load-monitor timers; cancelled on destruction so no simulator callback
  /// outlives the broker it captures.
  std::vector<TimerHandle> monitors_;
  /// Grow-only scratch for matching an inbound link batch.
  std::vector<const Publication*> batch_ptrs_;
  std::vector<std::vector<NodeId>> batch_dests_;
  /// Per-link outgoing batching (BrokerConfig::link_batch_size).
  LinkBatcher link_batcher_;
  BrokerStats stats_;
  AnalysisCounters analysis_counters_;
  /// Covering forest over installed subscriptions (BrokerConfig::covering).
  std::unique_ptr<CoveringIndex> covering_;
  CoveringCounters covering_counters_;
};

}  // namespace evps
