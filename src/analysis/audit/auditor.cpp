#include "analysis/audit/auditor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/summary.hpp"

namespace evps::audit {

const char* to_string(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kDeliveryCompleteness: return "delivery-completeness";
    case Invariant::kForest: return "covering-forest";
    case Invariant::kQuiescence: return "quiescence";
    case Invariant::kGhostState: return "ghost-state";
    case Invariant::kTopology: return "topology";
  }
  return "?";
}

bool AuditReport::has(Invariant inv) const noexcept { return count(inv) != 0; }

std::size_t AuditReport::count(Invariant inv) const noexcept {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.invariant == inv) ++n;
  }
  return n;
}

std::string AuditReport::format() const {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << (v.broker.empty() ? std::string("overlay") : v.broker) << ": " << to_string(v.invariant);
    if (v.sub.valid()) os << ": " << v.sub;
    os << ": " << v.message << "\n";
    for (const std::string& w : v.witness) os << "    witness: " << w << "\n";
  }
  os << "audit: " << brokers_audited << " broker(s), " << subscriptions_audited
     << " subscription(s), " << paths_checked << " path(s), " << witnesses_checked
     << " covering witness(es): " << violations.size() << " violation(s)\n";
  return os.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void AuditReport::to_json(std::ostream& os) const {
  os << "{\"clean\":" << (clean() ? "true" : "false") << ",\"brokers\":" << brokers_audited
     << ",\"subscriptions\":" << subscriptions_audited << ",\"paths\":" << paths_checked
     << ",\"witnesses\":" << witnesses_checked << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) os << ",";
    os << "{\"invariant\":\"" << to_string(v.invariant) << "\",\"broker\":\""
       << json_escape(v.broker) << "\",";
    if (v.sub.valid()) {
      os << "\"sub\":" << v.sub.value() << ",";
    } else {
      os << "\"sub\":null,";
    }
    os << "\"message\":\"" << json_escape(v.message) << "\",\"witness\":[";
    for (std::size_t j = 0; j < v.witness.size(); ++j) {
      if (j != 0) os << ",";
      os << "\"" << json_escape(v.witness[j]) << "\"";
    }
    os << "]}";
  }
  os << "]}";
}

namespace {

/// Audit-side re-derivation of the static dedup equivalence: two fully-
/// static installs may share a matcher entry iff they have the same
/// destination and the same multiset of (attribute, op, bit-exact constant)
/// predicates — the exact injectivity contract of static_dedup_key (the
/// byte format differs; only the equivalence classes matter here).
std::string audit_static_key(const InstalledSub& e) {
  std::vector<std::string> parts;
  if (e.sub) {
    parts.reserve(e.sub->predicates().size());
    for (const Predicate& p : e.sub->predicates()) {
      std::string s = std::to_string(p.attr_id());
      s += '~';
      s += std::to_string(static_cast<int>(p.op()));
      s += '~';
      const Value& c = p.constant();
      if (c.is_string()) {
        s += 's';
        s += c.as_string();
      } else if (c.is_int()) {
        s += 'i';
        s += std::to_string(c.as_int());
      } else {
        std::uint64_t bits = 0;
        const double d = c.as_double();
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "d%" PRIx64, bits);
        s += buf;
      }
      parts.push_back(std::move(s));
    }
  }
  std::sort(parts.begin(), parts.end());
  std::string key = e.dest.str();
  for (const std::string& p : parts) {
    key += '|';
    key += p;
  }
  return key;
}

struct BrokerCtx {
  const BrokerState* st = nullptr;
  VariableRegistry registry;
  /// Installed subscriptions grouped by destination (witness lookup).
  std::unordered_map<NodeId, std::vector<const std::pair<const SubscriptionId, InstalledSub>*>>
      by_dest;
  std::map<SubscriptionId, const ForestNode*> forest;
};

class Audit {
 public:
  Audit(const OverlaySnapshot& snap, const AuditOptions& opts) : snap_(snap), opts_(opts) {}

  AuditReport run() {
    build();
    check_topology();
    for (std::size_t i = 0; i < ctx_.size(); ++i) {
      check_quiescence(i);
      check_routes(i);
      check_forest(i);
      check_ghost_state(i);
    }
    check_delivery();
    rep_.brokers_audited = ctx_.size();
    return std::move(rep_);
  }

 private:
  void add(Invariant inv, const BrokerState* b, SubscriptionId sub, std::string message,
           std::vector<std::string> witness = {}) {
    Violation v;
    v.invariant = inv;
    v.broker = b != nullptr ? b->name : "";
    v.sub = sub;
    v.message = std::move(message);
    v.witness = std::move(witness);
    rep_.violations.push_back(std::move(v));
  }

  void build() {
    // Merged declaration pool: declarations are broker-local contract
    // metadata, so a covering witness re-proved at broker X may rely on a
    // range only the declaring broker exported.
    std::vector<VariableState> merged;
    std::set<std::string> seen;
    for (const BrokerState& b : snap_.brokers) {
      for (const VariableState& v : b.variables) {
        if (v.declared && seen.insert(v.name).second) merged.push_back(v);
      }
    }
    ctx_.resize(snap_.brokers.size());
    cover_cache_.resize(snap_.brokers.size());
    for (std::size_t i = 0; i < snap_.brokers.size(); ++i) {
      const BrokerState& b = snap_.brokers[i];
      index_.emplace(b.node, i);
      BrokerCtx& c = ctx_[i];
      c.st = &b;
      c.registry = rebuild_registry(b, merged);
      for (const auto& entry : b.engine.installed) {
        c.by_dest[entry.second.dest].push_back(&entry);
      }
      for (const ForestNode& n : b.forest) c.forest.emplace(n.id, &n);
    }
  }

  // --- invariant 5 (substrate): overlay graph sanity -----------------------

  void check_topology() {
    // Union-find over broker links: asymmetric edges, edges to unknown
    // brokers and cycles all void the tree-routing argument every other
    // invariant rests on.
    std::vector<std::size_t> parent(ctx_.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&parent](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (std::size_t i = 0; i < ctx_.size(); ++i) {
      const BrokerState& b = *ctx_[i].st;
      for (const NodeId n : b.broker_neighbors) {
        const auto it = index_.find(n);
        if (it == index_.end()) {
          add(Invariant::kTopology, &b, SubscriptionId::invalid(),
              "broker neighbour " + n.str() + " is not in the snapshot");
          continue;
        }
        const BrokerState& peer = *ctx_[it->second].st;
        if (std::find(peer.broker_neighbors.begin(), peer.broker_neighbors.end(), b.node) ==
            peer.broker_neighbors.end()) {
          add(Invariant::kTopology, &b, SubscriptionId::invalid(),
              "asymmetric link: " + peer.name + " does not list " + b.name + " as a neighbour");
        }
        if (it->second < i) continue;  // count each undirected edge once
        const std::size_t ra = find(i);
        const std::size_t rb = find(it->second);
        if (ra == rb) {
          add(Invariant::kTopology, &b, SubscriptionId::invalid(),
              "overlay cycle through link " + b.name + " - " + peer.name +
                  " (reverse-path routing requires a tree)");
        } else {
          parent[ra] = rb;
        }
      }
    }
  }

  // --- invariant 3: quiescence ---------------------------------------------

  void check_quiescence(std::size_t i) {
    if (!opts_.check_quiescence) return;
    const BrokerState& b = *ctx_[i].st;
    for (const PendingLink& p : b.pending_links) {
      if (p.pending == 0) continue;
      add(Invariant::kQuiescence, &b, SubscriptionId::invalid(),
          "stranded link-batch buffer towards " + p.dest.str() + ": " +
              std::to_string(p.pending) + " publication(s) never flushed");
    }
  }

  // --- routing-table sanity (feeds invariants 1 and 4) ---------------------

  void check_routes(std::size_t i) {
    const BrokerState& b = *ctx_[i].st;
    for (const RouteEntry& r : b.routes) {
      if (b.find_installed(r.id) == nullptr) {
        add(Invariant::kGhostState, &b, r.id,
            "routing-table entry for a subscription the engine does not have");
      }
      std::set<NodeId> seen;
      for (const NodeId f : r.forwards) {
        if (!seen.insert(f).second) {
          add(Invariant::kTopology, &b, r.id, "duplicate forward towards " + f.str());
        }
        if (std::find(b.broker_neighbors.begin(), b.broker_neighbors.end(), f) ==
            b.broker_neighbors.end()) {
          add(Invariant::kTopology, &b, r.id,
              "forward towards " + f.str() + ", which is not a broker neighbour");
        }
      }
    }
  }

  // --- invariant 2: covering-forest well-formedness ------------------------

  void check_forest(std::size_t i) {
    const BrokerCtx& c = ctx_[i];
    const BrokerState& b = *c.st;
    if (!b.covering_enabled) {
      if (!b.forest.empty()) {
        add(Invariant::kForest, &b, b.forest.front().id,
            "covering forest present although covering routing is off");
      }
      return;
    }
    for (const auto& [id, e] : b.engine.installed) {
      if (!c.forest.contains(id)) {
        add(Invariant::kForest, &b, id,
            "installed subscription missing from the covering forest (index/engine desync)");
      }
    }
    for (const ForestNode& n : b.forest) {
      const InstalledSub* inst = b.find_installed(n.id);
      if (inst == nullptr) {
        add(Invariant::kGhostState, &b, n.id,
            "covering-forest node does not trace back to a live subscription");
        continue;
      }
      if (!n.parent.valid()) {
        // Root: every child must point back and be childless (depth <= 1).
        for (const SubscriptionId child : n.children) {
          const auto cit = c.forest.find(child);
          if (cit == c.forest.end()) {
            add(Invariant::kForest, &b, n.id,
                "child " + child.str() + " is not in the forest");
            continue;
          }
          if (cit->second->parent != n.id) {
            add(Invariant::kForest, &b, child,
                "listed as a child of " + n.id.str() + " but its parent is " +
                    (cit->second->parent.valid() ? cit->second->parent.str() : "none"));
          }
        }
        continue;
      }
      // Child: parent exists, is a root (acyclicity + depth <= 1), lists it,
      // and provably covers it.
      if (n.parent == n.id) {
        add(Invariant::kForest, &b, n.id, "covering node is its own parent (cycle)");
        continue;
      }
      if (!n.children.empty()) {
        add(Invariant::kForest, &b, n.id,
            "covered child has children of its own (forest depth > 1)");
      }
      const auto pit = c.forest.find(n.parent);
      if (pit == c.forest.end()) {
        add(Invariant::kForest, &b, n.id,
            "orphaned covering child: parent " + n.parent.str() + " is not in the forest");
        continue;
      }
      const ForestNode& parent = *pit->second;
      if (parent.parent.valid()) {
        add(Invariant::kForest, &b, n.id,
            "parent " + n.parent.str() + " is itself covered (forest depth > 1)");
      }
      if (std::find(parent.children.begin(), parent.children.end(), n.id) ==
          parent.children.end()) {
        add(Invariant::kForest, &b, n.id,
            "parent " + n.parent.str() + " does not list it as a child");
      }
      if (opts_.check_covering_proofs) {
        const InstalledSub* pinst = b.find_installed(n.parent);
        if (pinst != nullptr && pinst->sub && inst->sub &&
            !covers_cached(i, n.parent, *pinst->sub, n.id, *inst->sub)) {
          add(Invariant::kForest, &b, n.id,
              "orphaned covering child: " + n.parent.str() +
                  " does not provably cover it under the final variable state",
              {"covers(" + n.parent.str() + ", " + n.id.str() + ") = unknown at " + b.name});
        }
      }
    }
  }

  // --- invariant 4: no ghost state / physical-footprint accounting ---------

  void check_ghost_state(std::size_t i) {
    const BrokerState& b = *ctx_[i].st;
    const EngineState& eng = b.engine;
    const bool lazy_kind = eng.kind == "LEES" || eng.kind == "CLEES" || eng.kind == "hybrid";

    // Dedup-group bookkeeping: members must be live, and each id may belong
    // to at most one group of its flavour.
    std::map<SubscriptionId, const DedupGroup*> static_group_of;
    std::map<SubscriptionId, const DedupGroup*> lazy_group_of;
    for (const DedupGroup& g : eng.dedup_groups) {
      if (g.members.empty()) {
        add(Invariant::kGhostState, &b, SubscriptionId::invalid(),
            "empty dedup group survives under key {" + g.key + "}");
        continue;
      }
      std::string recomputed;
      for (std::size_t m = 0; m < g.members.size(); ++m) {
        const SubscriptionId id = g.members[m];
        auto& group_of = g.lazy ? lazy_group_of : static_group_of;
        if (!group_of.emplace(id, &g).second) {
          add(Invariant::kGhostState, &b, id,
              "subscription belongs to more than one dedup group (refcount skew)");
        }
        const InstalledSub* inst = b.find_installed(id);
        if (inst == nullptr) {
          add(Invariant::kGhostState, &b, id,
              "dedup group member is not installed (refcount skew: removal left the group)");
          continue;
        }
        if (!g.lazy && inst->sub) {
          // All members of a static group must be interchangeable installs.
          const std::string key = audit_static_key(*inst);
          if (m == 0) {
            recomputed = key;
          } else if (key != recomputed) {
            add(Invariant::kGhostState, &b, id,
                "static dedup group mixes non-identical installs (canonical " +
                    g.members.front().str() + " would misroute this member)",
                {"group key {" + g.key + "}"});
          }
        }
        if (g.lazy && !inst->fully_evolving()) {
          add(Invariant::kGhostState, &b, id,
              "lazy dedup group contains a subscription with static predicates "
              "(split installs must never share)");
        }
      }
    }

    // Matcher footprint, both directions.
    std::set<SubscriptionId> matcher(eng.matcher_ids.begin(), eng.matcher_ids.end());
    if (matcher.size() != eng.matcher_ids.size()) {
      add(Invariant::kGhostState, &b, SubscriptionId::invalid(),
          "duplicate subscription id in the matcher");
    }
    std::set<SubscriptionId> lazy_ids;
    for (const LazyEntry& e : eng.lazy_entries) lazy_ids.insert(e.id);

    for (const SubscriptionId id : matcher) {
      if (b.find_installed(id) == nullptr) {
        add(Invariant::kGhostState, &b, id,
            "leaked matcher slot: physically installed but unknown to the engine");
      }
    }
    for (const LazyEntry& e : eng.lazy_entries) {
      const InstalledSub* inst = b.find_installed(e.id);
      if (inst == nullptr) {
        add(Invariant::kGhostState, &b, e.id,
            "leaked lazy-storage entry: evolving part with no live subscription");
      } else if (inst->dest != e.dest) {
        add(Invariant::kGhostState, &b, e.id,
            "lazy-storage entry filed under " + e.dest.str() +
                " but the subscription's destination is " + inst->dest.str());
      }
    }

    for (const auto& [id, inst] : eng.installed) {
      const bool fully_static = !inst.evolving();
      bool expect_matcher = false;
      bool expect_lazy = false;
      std::string role;
      if (fully_static) {
        const auto git = static_group_of.find(id);
        if (git != static_group_of.end()) {
          expect_matcher = git->second->members.front() == id;
          role = expect_matcher ? "canonical of its dedup group" : "deduped behind " +
                 git->second->members.front().str();
        } else {
          add(Invariant::kGhostState, &b, id,
              "fully-static subscription untracked by the dedup table "
              "(refcount skew: its install is unaccounted)");
          expect_matcher = matcher.contains(id);  // avoid a cascading report
        }
      } else if (eng.kind == "VES") {
        expect_matcher = true;  // materialised version under its own id
        role = "materialised VES version";
      } else if (eng.kind == "LEES") {
        if (inst.fully_evolving()) {
          const auto git = lazy_group_of.find(id);
          if (git != lazy_group_of.end()) {
            expect_lazy = git->second->members.front() == id;
            role = expect_lazy ? "canonical of its lazy dedup group" : "deduped behind " +
                   git->second->members.front().str();
          } else {
            add(Invariant::kGhostState, &b, id,
                "fully-evolving subscription untracked by the lazy dedup table "
                "(refcount skew)");
            expect_lazy = lazy_ids.contains(id);
          }
        } else {
          expect_matcher = true;  // split: static half under its own id
          expect_lazy = true;
          role = "split install";
        }
      } else if (lazy_kind) {  // CLEES / hybrid
        expect_matcher = inst.static_preds > 0;
        expect_lazy = true;
        role = "lazy store entry";
      } else {
        // static/parametric engine: evolving subscriptions are rejected at
        // install time, so one in the table is itself ghost state.
        add(Invariant::kGhostState, &b, id,
            "evolving subscription installed in a " + eng.kind + " engine");
        continue;
      }
      if (expect_matcher && !matcher.contains(id)) {
        add(Invariant::kGhostState, &b, id,
            "missing matcher install (" + (role.empty() ? "expected physical entry" : role) +
                "): the matcher can never produce this subscription");
      }
      if (!expect_matcher && matcher.contains(id)) {
        add(Invariant::kGhostState, &b, id,
            "unexpected matcher install (" + (role.empty() ? "should be absent" : role) +
                "): refcount skew or stale slot");
      }
      if (lazy_kind) {
        if (expect_lazy && !lazy_ids.contains(id)) {
          add(Invariant::kGhostState, &b, id,
              "missing lazy-storage entry: the evolving part can never be evaluated");
        }
        if (!expect_lazy && lazy_ids.contains(id)) {
          add(Invariant::kGhostState, &b, id,
              "unexpected lazy-storage entry (deduped member should share its canonical's)");
        }
      } else if (lazy_ids.contains(id)) {
        add(Invariant::kGhostState, &b, id,
            "lazy-storage entry in a " + eng.kind + " engine");
      }
    }
  }

  // --- invariant 1: delivery completeness ----------------------------------

  void check_delivery() {
    for (std::size_t h = 0; h < ctx_.size(); ++h) {
      const BrokerState& home = *ctx_[h].st;
      for (const auto& [id, inst] : home.engine.installed) {
        const bool local = !inst.dest_is_broker &&
                           std::find(home.client_neighbors.begin(), home.client_neighbors.end(),
                                     inst.dest) != home.client_neighbors.end();
        if (!local) continue;
        ++rep_.subscriptions_audited;
        audit_subscription(h, id, inst);
      }
    }
  }

  void audit_subscription(std::size_t home, SubscriptionId id, const InstalledSub& inst) {
    const std::vector<std::size_t> toward = next_hop_toward(home);
    std::set<std::pair<std::size_t, NodeId>> reported;  // (failing broker, next hop)
    for (std::size_t e = 0; e < ctx_.size(); ++e) {
      if (!is_entry(e, inst)) continue;
      ++rep_.paths_checked;
      std::vector<std::string> chain;
      std::size_t at = e;
      bool ok = true;
      while (at != home) {
        const std::size_t next = toward[at];
        if (next == kUnreachable) {
          add(Invariant::kDeliveryCompleteness, ctx_[at].st, id,
              "no overlay path from entry broker " + ctx_[e].st->name + " towards " +
                  ctx_[home].st->name,
              chain);
          ok = false;
          break;
        }
        if (!find_witness(at, next, id, inst, chain)) {
          if (reported.emplace(at, ctx_[next].st->node).second) {
            add(Invariant::kDeliveryCompleteness, ctx_[at].st, id,
                "black hole: a publication entering at " + ctx_[e].st->name +
                    " is never forwarded towards " + ctx_[next].st->name +
                    " (no installed subscription or covering witness points that way)",
                chain);
          }
          ok = false;
          break;
        }
        at = next;
      }
      if (!ok) continue;
      // Final hop: the home broker must deliver to the subscriber's client
      // link — that is the audited install itself, so the chain closes.
    }
  }

  [[nodiscard]] bool is_entry(std::size_t e, const InstalledSub& inst) const {
    const BrokerState& b = *ctx_[e].st;
    if (b.routing != "advertisement") return true;  // flooding: any client link
    for (const AdvertEntry& a : b.adverts) {
      const bool origin =
          std::find(b.client_neighbors.begin(), b.client_neighbors.end(), a.from) !=
          b.client_neighbors.end();
      if (!origin) continue;
      if (!a.adv || !inst.sub ||
          overlaps(static_shape(a.adv->predicates()), static_shape(inst.sub->predicates()))) {
        return true;
      }
    }
    return false;
  }

  /// Some installed subscription at `at` with destination == broker `next`
  /// that is, or provably covers, the audited subscription.
  bool find_witness(std::size_t at, std::size_t next, SubscriptionId id,
                    const InstalledSub& inst, std::vector<std::string>& chain) {
    const BrokerCtx& c = ctx_[at];
    const NodeId next_node = ctx_[next].st->node;
    const auto it = c.by_dest.find(next_node);
    if (it != c.by_dest.end()) {
      for (const auto* entry : it->second) {
        if (entry->first == id) {
          chain.push_back(c.st->name + ": " + id.str() + " itself -> " + ctx_[next].st->name);
          return true;
        }
      }
      if (opts_.check_covering_proofs && inst.sub) {
        for (const auto* entry : it->second) {
          if (!entry->second.sub) continue;
          if (covers_cached(at, entry->first, *entry->second.sub, id, *inst.sub)) {
            chain.push_back(c.st->name + ": " + id.str() + " covered by " + entry->first.str() +
                            " -> " + ctx_[next].st->name);
            return true;
          }
        }
      } else if (!opts_.check_covering_proofs && !it->second.empty()) {
        // Structural-only pass: accept any correctly-pointed install.
        chain.push_back(c.st->name + ": structural witness " + it->second.front()->first.str() +
                        " -> " + ctx_[next].st->name);
        return true;
      }
    }
    return false;
  }

  bool covers_cached(std::size_t broker, SubscriptionId coverer_id, const Subscription& coverer,
                     SubscriptionId covered_id, const Subscription& covered) {
    auto& cache = cover_cache_[broker];
    const auto key = std::make_pair(coverer_id, covered_id);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    ++rep_.witnesses_checked;
    const bool ok = covers(coverer, covered, ctx_[broker].registry) == CoverVerdict::kCovers;
    cache.emplace(key, ok);
    return ok;
  }

  static constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);

  /// next[i] = index of i's neighbour one hop closer to `home` (BFS over the
  /// broker tree), kUnreachable when disconnected. Cached per home.
  const std::vector<std::size_t>& next_hop_toward(std::size_t home) {
    auto [it, inserted] = toward_cache_.try_emplace(home);
    if (!inserted) return it->second;
    std::vector<std::size_t>& next = it->second;
    next.assign(ctx_.size(), kUnreachable);
    std::deque<std::size_t> queue{home};
    std::vector<bool> seen(ctx_.size(), false);
    seen[home] = true;
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      for (const NodeId n : ctx_[cur].st->broker_neighbors) {
        const auto nit = index_.find(n);
        if (nit == index_.end() || seen[nit->second]) continue;
        seen[nit->second] = true;
        next[nit->second] = cur;
        queue.push_back(nit->second);
      }
    }
    return next;
  }

  const OverlaySnapshot& snap_;
  const AuditOptions& opts_;
  AuditReport rep_;
  std::map<NodeId, std::size_t> index_;
  std::vector<BrokerCtx> ctx_;
  std::vector<std::map<std::pair<SubscriptionId, SubscriptionId>, bool>> cover_cache_;
  std::map<std::size_t, std::vector<std::size_t>> toward_cache_;
};

}  // namespace

AuditReport OverlayAuditor::audit(const OverlaySnapshot& snap) const {
  return Audit(snap, options_).run();
}

}  // namespace evps::audit
