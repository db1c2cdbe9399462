#include "analysis/audit/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "message/codec.hpp"

namespace evps::audit {

namespace {

/// Bit-exact double rendering (decimal formatting would collapse distinct
/// values; the canonical text must change iff the state changed).
std::string hex_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, bits);
  return buf;
}

void sort_ids(std::vector<SubscriptionId>& ids) { std::sort(ids.begin(), ids.end()); }
void sort_nodes(std::vector<NodeId>& nodes) { std::sort(nodes.begin(), nodes.end()); }

}  // namespace

void OverlaySnapshot::normalize() {
  for (BrokerState& b : brokers) {
    sort_nodes(b.broker_neighbors);
    sort_nodes(b.client_neighbors);
    std::sort(b.routes.begin(), b.routes.end(),
              [](const RouteEntry& x, const RouteEntry& y) { return x.id < y.id; });
    for (RouteEntry& r : b.routes) sort_nodes(r.forwards);
    std::sort(b.adverts.begin(), b.adverts.end(),
              [](const AdvertEntry& x, const AdvertEntry& y) { return x.id < y.id; });
    std::sort(b.forest.begin(), b.forest.end(),
              [](const ForestNode& x, const ForestNode& y) { return x.id < y.id; });
    for (ForestNode& n : b.forest) sort_ids(n.children);
    sort_ids(b.engine.matcher_ids);
    std::sort(b.engine.lazy_entries.begin(), b.engine.lazy_entries.end(),
              [](const LazyEntry& x, const LazyEntry& y) {
                return x.id != y.id ? x.id < y.id : x.dest < y.dest;
              });
    // Group order is canonicalised by key; member order inside a group is
    // semantic (the first member is the physically-installed canonical).
    std::sort(b.engine.dedup_groups.begin(), b.engine.dedup_groups.end(),
              [](const DedupGroup& x, const DedupGroup& y) {
                return x.lazy != y.lazy ? !x.lazy : x.key < y.key;
              });
    std::sort(b.pending_links.begin(), b.pending_links.end(),
              [](const PendingLink& x, const PendingLink& y) { return x.dest < y.dest; });
    std::sort(b.variables.begin(), b.variables.end(),
              [](const VariableState& x, const VariableState& y) { return x.name < y.name; });
  }
  std::sort(brokers.begin(), brokers.end(),
            [](const BrokerState& x, const BrokerState& y) { return x.node < y.node; });
}

const BrokerState* OverlaySnapshot::find(NodeId node) const {
  for (const BrokerState& b : brokers) {
    if (b.node == node) return &b;
  }
  return nullptr;
}

std::string canonical_text(const OverlaySnapshot& snap) {
  std::ostringstream os;
  os << "overlay brokers=" << snap.brokers.size() << "\n";
  for (const BrokerState& b : snap.brokers) {
    os << "broker " << b.node << " name=" << b.name << " routing=" << b.routing
       << " covering=" << (b.covering_enabled ? 1 : 0) << "\n";
    os << "  neighbors brokers=[";
    for (const NodeId n : b.broker_neighbors) os << " " << n;
    os << " ] clients=[";
    for (const NodeId n : b.client_neighbors) os << " " << n;
    os << " ]\n";
    for (const RouteEntry& r : b.routes) {
      os << "  route " << r.id << " ->";
      for (const NodeId n : r.forwards) os << " " << n;
      os << "\n";
    }
    for (const AdvertEntry& a : b.adverts) {
      os << "  advert " << a.id << " from=" << a.from << " preds=[";
      if (a.adv) {
        for (const Predicate& p : a.adv->predicates()) os << " {" << serialize(p) << "}";
      }
      os << " ]\n";
    }
    for (const ForestNode& n : b.forest) {
      os << "  forest " << n.id << " parent=" << n.parent << " children=[";
      for (const SubscriptionId c : n.children) os << " " << c;
      os << " ]\n";
    }
    os << "  engine kind=" << b.engine.kind << "\n";
    for (const auto& [id, e] : b.engine.installed) {
      os << "  installed " << id << " dest=" << e.dest << " broker_hop=" << (e.dest_is_broker ? 1 : 0)
         << " static=" << e.static_preds << " evolving=" << e.evolving_preds;
      if (e.sub) {
        os << " subscriber=" << e.sub->subscriber() << " epoch=" << e.sub->epoch().micros()
           << " text={" << serialize(*e.sub) << "}";
      }
      os << "\n";
    }
    os << "  matcher [";
    for (const SubscriptionId id : b.engine.matcher_ids) os << " " << id;
    os << " ]\n";
    for (const LazyEntry& e : b.engine.lazy_entries) {
      os << "  lazy " << e.id << " dest=" << e.dest << "\n";
    }
    for (const DedupGroup& g : b.engine.dedup_groups) {
      os << "  dedup " << (g.lazy ? "lazy" : "static") << " key={" << g.key << "} members=[";
      for (const SubscriptionId id : g.members) os << " " << id;
      os << " ]\n";
    }
    for (const PendingLink& p : b.pending_links) {
      os << "  pending link dest=" << p.dest << " n=" << p.pending << "\n";
    }
    for (const VariableState& v : b.variables) {
      os << "  var " << v.name;
      if (v.declared) os << " in [" << hex_double(v.lo) << ", " << hex_double(v.hi) << "]";
      if (v.has_value) os << " = " << hex_double(v.value);
      os << "\n";
    }
  }
  return os.str();
}

VariableRegistry rebuild_registry(const BrokerState& broker,
                                  const std::vector<VariableState>& extra_declarations) {
  VariableRegistry registry;
  for (const VariableState& v : broker.variables) {
    if (v.declared) registry.declare_range(v.name, v.lo, v.hi);
  }
  // Merge peer declarations for locally-undeclared variables, unless they
  // contradict a local value (a declaration must never reject state the
  // broker actually held).
  for (const VariableState& v : extra_declarations) {
    if (!v.declared || registry.declared_range(v.name).has_value()) continue;
    bool contradicts = false;
    for (const VariableState& local : broker.variables) {
      if (local.name == v.name && local.has_value &&
          (local.value < v.lo || local.value > v.hi)) {
        contradicts = true;
        break;
      }
    }
    if (!contradicts) registry.declare_range(v.name, v.lo, v.hi);
  }
  for (const VariableState& v : broker.variables) {
    if (v.has_value) registry.set(v.name, v.value, SimTime::zero());
  }
  return registry;
}

}  // namespace evps::audit
