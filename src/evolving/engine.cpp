#include "evolving/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "evolving/clees_engine.hpp"
#include "evolving/hybrid_engine.hpp"
#include "evolving/lees_engine.hpp"
#include "evolving/static_engine.hpp"
#include "evolving/ves_engine.hpp"

namespace evps {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kStatic: return "static";
    case EngineKind::kParametric: return "parametric";
    case EngineKind::kVes: return "VES";
    case EngineKind::kLees: return "LEES";
    case EngineKind::kClees: return "CLEES";
    case EngineKind::kHybrid: return "hybrid";
  }
  return "?";
}

bool DedupTable::add(SubscriptionId id, std::string key) {
  auto& members = groups_[key];
  members.push_back(id);
  key_of_.emplace(id, std::move(key));
  return members.size() == 1;
}

DedupTable::RemoveAction DedupTable::remove(SubscriptionId id) {
  RemoveAction action;
  const auto kit = key_of_.find(id);
  if (kit == key_of_.end()) return action;
  action.tracked = true;
  const auto git = groups_.find(kit->second);
  auto& members = git->second;
  if (members.front() == id) {
    action.uninstall = true;
    members.erase(members.begin());
    if (!members.empty()) action.reinstall = members.front();
  } else {
    members.erase(std::remove(members.begin(), members.end(), id), members.end());
  }
  if (members.empty()) groups_.erase(git);
  key_of_.erase(kit);
  return action;
}

std::string static_dedup_key(NodeId dest, const std::vector<Predicate>& preds) {
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const auto& p : preds) {
    std::string s = std::to_string(p.attr_id());
    s += '~';
    s += std::to_string(static_cast<int>(p.op()));
    s += '~';
    const Value& c = p.constant();
    if (c.is_string()) {
      s += 's';
      s += std::to_string(c.as_string().size());
      s += ':';
      s += c.as_string();
    } else if (c.is_int()) {
      s += 'i';
      s += std::to_string(c.as_int());
    } else {
      // Bit pattern: exactness matters (distinct doubles, incl. -0.0 vs 0.0
      // and NaN payloads, must not collide onto one key).
      std::uint64_t bits = 0;
      const double d = *c.numeric();
      std::memcpy(&bits, &d, sizeof(bits));
      s += 'd';
      s += std::to_string(bits);
    }
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string key = std::to_string(dest.value());
  for (const auto& part : parts) {
    key += '|';
    key += part;
  }
  return key;
}

BrokerEngine::BrokerEngine(const EngineConfig& config) : config_(config) {
  auto sharded = std::make_unique<ShardedMatcher>(config.matcher, config.matcher_threads);
  sharded_ = sharded.get();
  matcher_ = std::move(sharded);
}

void BrokerEngine::add(const SubscriptionPtr& sub, NodeId dest, EngineHost& host,
                       bool dest_is_broker) {
  if (!sub) throw std::invalid_argument("cannot install a null subscription");
  if (!sub->id().valid()) throw std::invalid_argument("subscription must carry a valid id");
  const auto [it, inserted] = subs_.emplace(sub->id(), Installed{sub, dest, dest_is_broker});
  if (!inserted) throw std::invalid_argument("duplicate subscription id " + sub->id().str());
  try {
    do_add(it->second, host);
  } catch (...) {
    subs_.erase(it);
    throw;
  }
}

bool BrokerEngine::remove(SubscriptionId id, EngineHost& host) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  do_remove(it->second, host);
  subs_.erase(it);
  return true;
}

bool BrokerEngine::update(SubscriptionId id, const std::vector<std::optional<Value>>& new_values,
                          EngineHost& host) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  const ScopedTimer timer(costs_.maintenance);

  const Installed old_entry = it->second;
  const auto& old_sub = *old_entry.sub;
  if (new_values.size() > old_sub.predicates().size()) {
    throw std::invalid_argument("update carries more values than predicates");
  }
  // Rebuild predicates with replaced operands.
  std::vector<Predicate> preds;
  preds.reserve(old_sub.predicates().size());
  for (std::size_t i = 0; i < old_sub.predicates().size(); ++i) {
    const auto& p = old_sub.predicates()[i];
    if (i < new_values.size() && new_values[i].has_value()) {
      preds.push_back(Predicate{p.attribute(), p.op(), *new_values[i]});
    } else {
      preds.push_back(p);
    }
  }
  Subscription rebuilt{old_sub.id(), old_sub.subscriber(), std::move(preds)};
  rebuilt.set_mei(old_sub.mei());
  rebuilt.set_tt(old_sub.tt());
  rebuilt.set_validity(old_sub.validity());
  rebuilt.set_epoch(old_sub.epoch());

  do_remove(old_entry, host);
  it->second.sub = std::make_shared<const Subscription>(std::move(rebuilt));
  do_add(it->second, host);
  return true;
}

void BrokerEngine::match(const Publication& pub, const VariableSnapshot* snapshot,
                         EngineHost& host, std::vector<NodeId>& destinations) {
  do_match(pub, snapshot, host, destinations);
  std::sort(destinations.begin(), destinations.end());
  destinations.erase(std::unique(destinations.begin(), destinations.end()), destinations.end());
}

void BrokerEngine::match_batch(std::span<const Publication> pubs,
                               const VariableSnapshot* snapshot, EngineHost& host,
                               std::vector<std::vector<NodeId>>& destinations) {
  ptr_scratch_.clear();
  ptr_scratch_.reserve(pubs.size());
  for (const auto& pub : pubs) ptr_scratch_.push_back(&pub);
  match_batch(std::span<const Publication* const>(ptr_scratch_), snapshot, host, destinations);
}

void BrokerEngine::match_batch(std::span<const Publication* const> pubs,
                               const VariableSnapshot* snapshot, EngineHost& host,
                               std::vector<std::vector<NodeId>>& destinations) {
  if (pubs.empty()) return;
  const auto start = std::chrono::steady_clock::now();
  if (destinations.size() < pubs.size()) destinations.resize(pubs.size());
  for (std::size_t i = 0; i < pubs.size(); ++i) destinations[i].clear();
  do_match_batch(pubs, snapshot, host, destinations);
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    auto& dests = destinations[i];
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  }
  const auto end = std::chrono::steady_clock::now();
  batch_counters_.record(pubs.size(), std::chrono::duration<double>(end - start).count());
}

void BrokerEngine::do_match(const Publication& pub, const VariableSnapshot* /*snapshot*/,
                            EngineHost& /*host*/, std::vector<NodeId>& destinations) {
  m1_.clear();
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match(pub, m1_);
  }
  for (const auto id : m1_) {
    const Installed* entry = installed_entry(id);
    if (entry != nullptr) destinations.push_back(entry->dest);
  }
}

void BrokerEngine::do_match_batch(std::span<const Publication* const> pubs,
                                  const VariableSnapshot* /*snapshot*/, EngineHost& /*host*/,
                                  std::vector<std::vector<NodeId>>& destinations) {
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match_batch(pubs, m1_batch_);
  }
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    for (const auto id : m1_batch_[i]) {
      const Installed* entry = installed_entry(id);
      if (entry != nullptr) destinations[i].push_back(entry->dest);
    }
  }
}

NodeId BrokerEngine::destination_of(SubscriptionId id) const noexcept {
  const auto it = subs_.find(id);
  return it == subs_.end() ? NodeId::invalid() : it->second.dest;
}

SubscriptionPtr BrokerEngine::subscription_of(SubscriptionId id) const noexcept {
  const auto it = subs_.find(id);
  return it == subs_.end() ? nullptr : it->second.sub;
}

void BrokerEngine::export_audit_state(audit::EngineState& out) const {
  out.kind = to_string(config_.kind);
  for (const auto& [id, entry] : subs_) {
    audit::InstalledSub e;
    e.sub = entry.sub;
    e.dest = entry.dest;
    e.dest_is_broker = entry.dest_is_broker;
    if (entry.sub) {
      for (const Predicate& p : entry.sub->predicates()) {
        if (p.is_evolving()) {
          ++e.evolving_preds;
        } else {
          ++e.static_preds;
        }
      }
    }
    out.installed.emplace(id, std::move(e));
  }
  matcher_->collect_ids(out.matcher_ids);
  static_dedup_.for_each_group([&out](const std::string& key,
                                      const std::vector<SubscriptionId>& members) {
    out.dedup_groups.push_back(audit::DedupGroup{key, members, /*lazy=*/false});
  });
}

void BrokerEngine::rebind_publication_scope(EvalScope& scope, const Publication& pub,
                                            const VariableSnapshot* snapshot,
                                            const VariableRegistry& registry, SimTime now) {
  if (snapshot != nullptr) {
    // Snapshot consistency (Section V-D): evaluate as if at the entry-point
    // broker at the instant the publication entered the system.
    scope.rebind(&registry, pub.entry_time());
    for (const auto& [var, value] : *snapshot) scope.bind(var, value);
  } else {
    scope.rebind(&registry, now);
  }
}

const BrokerEngine::Installed* BrokerEngine::installed_entry(SubscriptionId id) const noexcept {
  const auto it = subs_.find(id);
  assert(it != subs_.end() && "matcher returned an id with no installed subscription");
  return it == subs_.end() ? nullptr : &it->second;
}

void BrokerEngine::matcher_add_static(const Installed& entry) {
  const auto& sub = *entry.sub;
  assert(!sub.is_evolving());
  if (static_dedup_.add(sub.id(), static_dedup_key(entry.dest, sub.predicates()))) {
    matcher_->add(sub.id(), sub.predicates());
  }
}

void BrokerEngine::matcher_remove_static(SubscriptionId id) {
  const DedupTable::RemoveAction action = static_dedup_.remove(id);
  if (!action.tracked) {
    matcher_->remove(id);
    return;
  }
  if (!action.uninstall) return;  // a sharing member left; canonical stays
  matcher_->remove(id);
  if (action.reinstall.valid()) {
    // The canonical id left but the group survives: reinstall under a
    // surviving member so the matcher keeps resolving to a live id.
    const Installed* entry = installed_entry(action.reinstall);
    if (entry != nullptr) matcher_->add(action.reinstall, entry->sub->predicates());
  }
}

Duration BrokerEngine::effective_mei(const Subscription& sub) const noexcept {
  return sub.mei() > Duration::zero() ? sub.mei() : config_.default_mei;
}

Duration BrokerEngine::effective_tt(const Subscription& sub) const noexcept {
  return sub.tt() > Duration::zero() ? sub.tt() : config_.default_tt;
}

BrokerEnginePtr make_engine(const EngineConfig& config) {
  switch (config.kind) {
    case EngineKind::kStatic:
    case EngineKind::kParametric: return std::make_unique<StaticEngine>(config);
    case EngineKind::kVes: return std::make_unique<VesEngine>(config);
    case EngineKind::kLees: return std::make_unique<LeesEngine>(config);
    case EngineKind::kClees: return std::make_unique<CleesEngine>(config);
    case EngineKind::kHybrid: return std::make_unique<HybridEngine>(config);
  }
  throw std::invalid_argument("unknown engine kind");
}

}  // namespace evps
