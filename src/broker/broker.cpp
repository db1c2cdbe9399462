#include "broker/broker.hpp"

#include <algorithm>
#include <optional>

#include "analysis/analyzer.hpp"
#include "common/logging.hpp"

namespace evps {

namespace {
LinkBatcher::Config resolve_link_config(BrokerConfig& config) {
  // 0 resolves the EVPS_LINK_BATCH environment variable (default 1), stored
  // back so config() reports the effective value — the matcher_threads
  // pattern.
  if (config.link_batch_size == 0) config.link_batch_size = default_link_batch_size();
  return LinkBatcher::Config{config.link_batch_size, config.link_flush_deadline,
                             config.measure_link_bytes};
}
}  // namespace

Broker::Broker(std::string name, Network& net, BrokerConfig config)
    : net_(net),
      name_(std::move(name)),
      config_(config),
      engine_(make_engine(config.engine)),
      link_batcher_(net, *this, resolve_link_config(config_), [this](NodeId dest) {
        if (client_neighbors_.contains(dest)) return LinkKind::kClient;
        if (broker_neighbors_.contains(dest)) return LinkKind::kBroker;
        return LinkKind::kUnknown;
      }) {
  if (config_.covering) {
    covering_ = std::make_unique<CoveringIndex>(config_.relational_covering);
  }
  net_.attach(*this);
}

Broker::~Broker() {
  for (auto& monitor : monitors_) monitor.cancel();
}

void Broker::connect(Broker& a, Broker& b, Duration latency) {
  a.net_.connect(a.node_id(), b.node_id(), latency);
  a.broker_neighbors_.insert(b.node_id());
  b.broker_neighbors_.insert(a.node_id());
}

void Broker::accept_client(NodeId client) { client_neighbors_.insert(client); }

void Broker::set_variable(const std::string& name, double value) {
  set_variable_local(name, value);
  for (const auto neighbor : broker_neighbors_) {
    send_to(neighbor, VarUpdateMsg{name, value});
  }
}

void Broker::set_variable_local(const std::string& name, double value) {
  registry_.set(name, value, now());
}

TimerHandle Broker::enable_load_monitor(const std::string& name, Duration interval,
                                        SimTime until) {
  set_variable_local(name, 0.0);
  auto last = std::make_shared<std::uint64_t>(stats_.deliveries + stats_.pubs_forwarded);
  TimerHandle handle = net_.simulator().every(
      now() + interval, interval, until, [this, name, interval, last](SimTime) {
        const std::uint64_t total = stats_.deliveries + stats_.pubs_forwarded;
        const double rate =
            static_cast<double>(total - *last) / interval.count_seconds();
        *last = total;
        set_variable_local(name, rate);
      });
  monitors_.push_back(handle);
  return handle;
}

void Broker::on_message(const Envelope& env) {
  ++stats_.received_total;
  if (is_subscription_related(env.msg)) ++stats_.subscription_msgs;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, SubscribeMsg>) {
          handle_subscribe(msg, env.from);
        } else if constexpr (std::is_same_v<T, UnsubscribeMsg>) {
          handle_unsubscribe(msg, env.from);
        } else if constexpr (std::is_same_v<T, SubscriptionUpdateMsg>) {
          handle_update(msg, env.from);
        } else if constexpr (std::is_same_v<T, PublishMsg>) {
          handle_publish(msg, env.from);
        } else if constexpr (std::is_same_v<T, PublishBatchMsg>) {
          handle_publish_batch(msg, env.from);
        } else if constexpr (std::is_same_v<T, AdvertiseMsg>) {
          handle_advertise(msg, env.from);
        } else if constexpr (std::is_same_v<T, UnadvertiseMsg>) {
          handle_unadvertise(msg, env.from);
        } else if constexpr (std::is_same_v<T, VarUpdateMsg>) {
          handle_var_update(msg, env.from);
        } else {
          EVPS_WARN(name_, "unexpected message kind: ", message_kind(env.msg));
        }
      },
      env.msg);
}

std::vector<NodeId> Broker::subscription_forward_targets(const Subscription& sub,
                                                         NodeId from) const {
  std::vector<NodeId> targets;
  if (config_.routing == RoutingMode::kFlooding) {
    for (const auto neighbor : broker_neighbors_) {
      if (neighbor != from) targets.push_back(neighbor);
    }
    return targets;
  }
  // Advertisement routing: forward only towards neighbours that are on the
  // path of an advertisement the subscription's static predicates overlap.
  const SubscriptionShape shape = static_shape(sub.predicates());
  std::set<NodeId> chosen;
  for (const auto& [id, ad] : adverts_) {
    if (ad.from == from || chosen.contains(ad.from)) continue;
    if (!broker_neighbors_.contains(ad.from)) continue;
    if (overlaps(ad.shape, shape)) chosen.insert(ad.from);
  }
  targets.assign(chosen.begin(), chosen.end());
  return targets;
}

void Broker::handle_subscribe(const SubscribeMsg& msg, NodeId from) {
  ++stats_.subscribes;
  if (!msg.sub) return;
  if (engine_->contains(msg.sub->id())) return;  // duplicate (cycle guard)
  // One summary per subscribe (analysis/summary.hpp) feeds the analysis and
  // the covering index; a broker needing neither builds none.
  const bool analyze = config_.analysis != AnalysisPolicy::kOff && msg.sub->is_evolving();
  std::optional<SubscriptionSummary> summary;
  if (analyze || covering_) summary = summarize(*msg.sub, registry_);
  SubscriptionPtr install = msg.sub;
  if (analyze) install = analyze_incoming(msg.sub, *summary);
  if (!install) return;  // rejected: not installed, not forwarded
  engine_->add(install, from, *this, broker_neighbors_.contains(from));
  // Forward what was installed: a folded subscription is provably equivalent
  // and lets downstream brokers skip the lazy path too.
  auto targets = subscription_forward_targets(*install, from);
  CoveringIndex::AddResult cover;
  if (covering_) {
    // A constant fold is covered as what it installs: its own summary.
    if (install != msg.sub) summary = summarize(*install, registry_);
    cover = covering_->add(install->id(), std::move(*summary));
    if (cover.parent.valid()) {
      // Covered: suppress exactly the directions the root already reaches —
      // publications matching this subscription are already routed back here
      // through the root. Other directions (e.g. the one the root arrived
      // from) still need the subscription itself.
      const auto root_it = sub_forwards_.find(cover.parent);
      if (root_it != sub_forwards_.end()) {
        const auto& root_fwd = root_it->second;
        const auto suppressed = [&root_fwd](NodeId target) {
          return std::find(root_fwd.begin(), root_fwd.end(), target) != root_fwd.end();
        };
        const auto new_end = std::remove_if(targets.begin(), targets.end(), suppressed);
        covering_counters_.suppressed_forwards +=
            static_cast<std::uint64_t>(targets.end() - new_end);
        targets.erase(new_end, targets.end());
      }
    }
  }
  for (const auto target : targets) {
    send_to(target, SubscribeMsg{install});
  }
  const auto [fwd_it, inserted] = sub_forwards_.emplace(install->id(), std::move(targets));
  (void)inserted;
  // Retract newly covered roots after the coverer's subscribes are queued:
  // per-link FIFO delivers the coverer first, so upstream never has a gap.
  if (covering_ && !cover.demoted.empty()) retract_demoted(cover.demoted, fwd_it->second);
}

void Broker::resubscribe_promoted(const std::vector<SubscriptionId>& promoted) {
  for (const SubscriptionId id : promoted) {
    const SubscriptionPtr sub = engine_->subscription_of(id);
    if (!sub) continue;
    auto& forwards = sub_forwards_[id];
    for (const auto target : subscription_forward_targets(*sub, engine_->destination_of(id))) {
      if (std::find(forwards.begin(), forwards.end(), target) != forwards.end()) continue;
      send_to(target, SubscribeMsg{sub});
      forwards.push_back(target);
      ++covering_counters_.resubscribes;
    }
  }
}

void Broker::retract_demoted(const std::vector<SubscriptionId>& demoted,
                             const std::vector<NodeId>& coverer_forwards) {
  for (const SubscriptionId id : demoted) {
    const auto it = sub_forwards_.find(id);
    if (it == sub_forwards_.end()) continue;
    auto& forwards = it->second;
    for (auto fit = forwards.begin(); fit != forwards.end();) {
      if (std::find(coverer_forwards.begin(), coverer_forwards.end(), *fit) ==
          coverer_forwards.end()) {
        ++fit;  // the coverer does not reach this direction: keep ours
        continue;
      }
      send_to(*fit, UnsubscribeMsg{id});
      ++covering_counters_.demote_unsubscribes;
      fit = forwards.erase(fit);
    }
  }
}

SubscriptionPtr Broker::analyze_incoming(const SubscriptionPtr& sub,
                                         const SubscriptionSummary& summary) {
  ++analysis_counters_.analyzed;
  std::vector<const SubscriptionShape*> ads;
  if (config_.routing == RoutingMode::kAdvertisement) {
    ads.reserve(adverts_.size());
    for (const auto& [id, ad] : adverts_) ads.push_back(&ad.shape);
  }
  const SubscriptionAnalysis analysis = analyze_subscription(*sub, summary, registry_, ads);
  const bool enforce = config_.analysis == AnalysisPolicy::kEnforce;
  switch (analysis.verdict) {
    case Verdict::kMalformed:
      ++analysis_counters_.rejected_malformed;
      EVPS_WARN(name_, "subscription ", sub->id(), " malformed: ", analysis.diagnostic);
      if (enforce) return nullptr;
      break;
    case Verdict::kUnsatisfiable:
      ++analysis_counters_.rejected_unsatisfiable;
      EVPS_WARN(name_, "subscription ", sub->id(), " unsatisfiable: ", analysis.diagnostic);
      if (enforce) return nullptr;
      break;
    case Verdict::kRelUnsatisfiable:
      ++analysis_counters_.rejected_rel_unsatisfiable;
      EVPS_WARN(name_, "subscription ", sub->id(),
                " relationally unsatisfiable: ", analysis.diagnostic);
      if (enforce) return nullptr;
      break;
    case Verdict::kAdUncovered:
      // Satisfiable, so it stays installed (a covering advertisement may
      // still arrive) — but flagged: it cannot match today.
      ++analysis_counters_.flagged_uncovered;
      EVPS_WARN(name_, "subscription ", sub->id(), " uncovered: ", analysis.diagnostic);
      break;
    case Verdict::kConstant:
      // Folding anchors bounds at broker-local install-time state; under
      // snapshot consistency a publication may legitimately evaluate under
      // an earlier snapshot, so keep the lazy path there.
      if (enforce && !config_.snapshot_consistency) {
        ++analysis_counters_.folded_constant;
        return std::make_shared<const Subscription>(*analysis.folded);
      }
      break;
    case Verdict::kRelRedundant:
      // Advisory only: behaviour is identical with or without the entailed
      // predicate, so the subscription installs as-is.
      ++analysis_counters_.flagged_redundant;
      EVPS_WARN(name_, "subscription ", sub->id(), " redundant: ", analysis.diagnostic);
      break;
    case Verdict::kOk:
      break;
  }
  return sub;
}

void Broker::handle_unsubscribe(const UnsubscribeMsg& msg, NodeId from) {
  ++stats_.unsubscribes;
  if (!engine_->contains(msg.id)) return;
  CoveringIndex::RemoveResult uncovered;
  if (covering_) uncovered = covering_->remove(msg.id);
  engine_->remove(msg.id, *this);
  // Uncover-on-remove: re-disseminate promoted subscriptions BEFORE the
  // coverer's unsubscribe so upstream brokers (per-link FIFO) install them
  // while the coverer is still routing — delivery never has a gap.
  if (covering_) resubscribe_promoted(uncovered.promoted);
  const auto it = sub_forwards_.find(msg.id);
  if (it != sub_forwards_.end()) {
    for (const auto target : it->second) {
      if (target != from) send_to(target, UnsubscribeMsg{msg.id});
    }
    sub_forwards_.erase(it);
  }
}

void Broker::handle_update(const SubscriptionUpdateMsg& msg, NodeId from) {
  ++stats_.sub_updates;
  if (!engine_->contains(msg.id)) return;
  // Reject oversized value lists before touching the covering index:
  // engine_->update throws on them, and by that point the index entry would
  // already be gone while the subscription stays installed — a desync that
  // silently loses the promoted children's re-dissemination later.
  if (const SubscriptionPtr current = engine_->subscription_of(msg.id);
      current && msg.new_values.size() > current->predicates().size()) {
    EVPS_WARN(name_, "subscription update ", msg.id,
              " carries more values than predicates; dropped");
    return;
  }
  // A parametric update changes the match set, so every covering relation
  // involving this subscription is void: retract it from the forest (its
  // covered children resubscribe upstream before the update propagates) and
  // re-analyze it under the new predicates afterwards.
  CoveringIndex::RemoveResult uncovered;
  if (covering_) uncovered = covering_->remove(msg.id);
  if (!engine_->update(msg.id, msg.new_values, *this)) return;
  if (covering_) resubscribe_promoted(uncovered.promoted);
  const auto it = sub_forwards_.find(msg.id);
  if (it != sub_forwards_.end()) {
    for (const auto target : it->second) {
      if (target != from) send_to(target, msg);
    }
  }
  if (!covering_) return;
  const SubscriptionPtr sub = engine_->subscription_of(msg.id);
  const CoveringIndex::AddResult cover = covering_->add(msg.id, summarize(*sub, registry_));
  if (!cover.parent.valid()) {
    // The updated subscription stands as a root: it must reach its full
    // target set, so directions suppressed under its old coverer receive the
    // updated subscription as a fresh subscribe (directions already
    // forwarded-to got the update message above). Roots it newly covers are
    // retracted behind it, exactly as on a covering subscribe; their
    // children move under it with the forwards they have, which it may not
    // fully reach (ROADMAP item 1's open direction gap).
    resubscribe_promoted({msg.id});
    if (!cover.demoted.empty()) retract_demoted(cover.demoted, sub_forwards_[msg.id]);
    return;
  }
  // Re-covered — possibly by a DIFFERENT root. The forwards on record were
  // suppressed against the OLD root's reach, and the new parent never
  // forwards towards its own origin direction, so keeping them unchanged
  // can leave a direction the updated predicates now need permanently
  // unserved. Recompute the full target set and forward the updated
  // subscription everywhere the new parent does not already reach.
  auto& forwards = sub_forwards_[msg.id];
  const auto parent_it = sub_forwards_.find(cover.parent);
  const std::vector<NodeId>* parent_fwd =
      parent_it != sub_forwards_.end() ? &parent_it->second : nullptr;
  for (const auto target :
       subscription_forward_targets(*sub, engine_->destination_of(msg.id))) {
    if (std::find(forwards.begin(), forwards.end(), target) != forwards.end()) continue;
    if (parent_fwd != nullptr &&
        std::find(parent_fwd->begin(), parent_fwd->end(), target) != parent_fwd->end()) {
      ++covering_counters_.suppressed_forwards;
      continue;
    }
    send_to(target, SubscribeMsg{sub});
    forwards.push_back(target);
    ++covering_counters_.resubscribes;
  }
}

void Broker::send_to(NodeId to, Message msg) {
  // Barrier: publications already buffered towards `to` were (in the
  // per-message path) sent before this message, so flush them first —
  // per-link FIFO then preserves the exact relative order.
  link_batcher_.barrier(to);
  net_.send(node_id(), to, std::move(msg));
}

void Broker::handle_publish(PublishMsg msg, NodeId from) {
  ++stats_.publications;
  if (client_neighbors_.contains(from)) {
    // Entry-point broker (Section V-D): stamp the entry time and, in
    // snapshot-consistency mode, record the current variable values. The
    // publication is shared down every forwarding path, so mutate a private
    // clone (copy-on-write) — the only deep copy an event ever pays.
    auto stamped = std::make_shared<Publication>(*msg.pub);
    stamped->set_entry_time(now());
    msg.pub = std::move(stamped);
    if (config_.snapshot_consistency) {
      auto snapshot = std::make_shared<VariableSnapshot>();
      registry_.for_each_latest(
          [&snapshot](VarId var, double value) { snapshot->emplace(var, value); });
      msg.snapshot = std::move(snapshot);
    }
  }

  // Snapshot-carrying publications match under their own snapshot; the
  // link batcher may still group the outgoing sends of the others.
  std::vector<NodeId> destinations;
  engine_->match(*msg.pub, msg.snapshot.get(), *this, destinations);
  forward_publication(msg, from, destinations);
}

void Broker::handle_publish_batch(const PublishBatchMsg& msg, NodeId from) {
  // Batches only travel broker-to-broker, so no entry stamping or snapshot
  // recording happens here; stats count events, not envelopes, keeping
  // every counter invariant under batching.
  stats_.publications += msg.pubs.size();
  // One engine call for the whole arrival (exact by the match_batch
  // contract), then route per event in arrival order.
  batch_ptrs_.clear();
  for (const auto& pub : msg.pubs) batch_ptrs_.push_back(pub.get());
  engine_->match_batch(std::span<const Publication* const>(batch_ptrs_), nullptr, *this,
                       batch_dests_);
  for (std::size_t i = 0; i < msg.pubs.size(); ++i) {
    forward_publication(PublishMsg{msg.pubs[i], nullptr}, from, batch_dests_[i]);
  }
}

void Broker::forward_publication(const PublishMsg& msg, NodeId from,
                                 const std::vector<NodeId>& destinations) {
  if (msg.snapshot != nullptr) {
    // Snapshot-carrying publications bypass link batching (each one
    // evaluates under its own snapshot downstream); send_to's barrier keeps
    // per-link order intact.
    for (const auto dest : destinations) {
      if (dest == from) continue;  // never route back where it came from
      if (client_neighbors_.contains(dest)) {
        send_to(dest, DeliveryMsg{msg.pub});
        ++stats_.deliveries;
      } else if (broker_neighbors_.contains(dest)) {
        send_to(dest, msg);
        ++stats_.pubs_forwarded;
      }
    }
    return;
  }
  for (const auto dest : destinations) {
    if (dest == from) continue;  // never route back where it came from
    switch (link_batcher_.enqueue(dest, msg.pub)) {
      case LinkKind::kClient: ++stats_.deliveries; break;
      case LinkKind::kBroker: ++stats_.pubs_forwarded; break;
      case LinkKind::kUnknown: break;  // not a neighbour: dropped
    }
  }
}

void Broker::handle_advertise(const AdvertiseMsg& msg, NodeId from) {
  ++stats_.advertisements;
  if (!msg.adv) return;
  if (adverts_.contains(msg.adv->id())) return;  // duplicate (cycle guard)
  const SubscriptionShape& ad_shape =
      adverts_.emplace(msg.adv->id(), Advert{msg.adv, from, static_shape(msg.adv->predicates())})
          .first->second.shape;
  // Advertisements are flooded.
  for (const auto neighbor : broker_neighbors_) {
    if (neighbor != from) send_to(neighbor, msg);
  }
  if (config_.routing != RoutingMode::kAdvertisement) return;
  // Catch-up: installed subscriptions that intersect the new advertisement
  // must now also be forwarded towards it.
  if (!broker_neighbors_.contains(from)) return;
  for (auto& [sub_id, forwards] : sub_forwards_) {
    if (std::find(forwards.begin(), forwards.end(), from) != forwards.end()) continue;
    if (engine_->destination_of(sub_id) == from) continue;  // sub came from that direction
    const auto sub = engine_->subscription_of(sub_id);
    if (!sub || !overlaps(ad_shape, static_shape(sub->predicates()))) continue;
    send_to(from, SubscribeMsg{sub});
    forwards.push_back(from);
  }
}

void Broker::handle_unadvertise(const UnadvertiseMsg& msg, NodeId from) {
  if (adverts_.erase(msg.id) == 0) return;
  for (const auto neighbor : broker_neighbors_) {
    if (neighbor != from) send_to(neighbor, msg);
  }
}

void Broker::handle_var_update(const VarUpdateMsg& msg, NodeId from) {
  ++stats_.var_updates;
  registry_.set(msg.name, msg.value, now());
  for (const auto neighbor : broker_neighbors_) {
    if (neighbor != from) send_to(neighbor, msg);
  }
}

audit::BrokerState Broker::export_snapshot() const {
  audit::BrokerState out;
  out.name = name_;
  out.node = node_id();
  out.routing = config_.routing == RoutingMode::kAdvertisement ? "advertisement" : "flooding";
  out.covering_enabled = config_.covering;
  out.broker_neighbors.assign(broker_neighbors_.begin(), broker_neighbors_.end());
  out.client_neighbors.assign(client_neighbors_.begin(), client_neighbors_.end());
  for (const auto& [id, forwards] : sub_forwards_) {
    out.routes.push_back(audit::RouteEntry{id, forwards});
  }
  for (const auto& [id, ad] : adverts_) {
    out.adverts.push_back(audit::AdvertEntry{id, ad.adv, ad.from});
  }
  if (covering_) {
    covering_->for_each_entry([this, &out](SubscriptionId id, SubscriptionId parent) {
      out.forest.push_back(audit::ForestNode{id, parent, covering_->children_of(id)});
    });
  }
  engine_->export_audit_state(out.engine);
  link_batcher_.for_each_pending([&out](NodeId dest, std::size_t pending) {
    out.pending_links.push_back(audit::PendingLink{dest, pending});
  });
  // Variable state: every id with a declared range or a recorded value.
  std::set<VarId> vars;
  for (const VarId v : registry_.ids()) vars.insert(v);
  for (const VarId v : registry_.declared_ids()) vars.insert(v);
  for (const VarId v : vars) {
    audit::VariableState vs;
    vs.name = VariableTable::instance().name(v);
    if (const auto range = registry_.declared_range(v)) {
      vs.declared = true;
      vs.lo = range->first;
      vs.hi = range->second;
    }
    if (const auto value = registry_.get(v)) {
      vs.has_value = true;
      vs.value = *value;
    }
    out.variables.push_back(std::move(vs));
  }
  return out;
}

}  // namespace evps
