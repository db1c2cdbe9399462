// Mutation-testing suite for the overlay auditor (analysis/audit).
//
// Strategy: build a real overlay, let it settle, export a snapshot and
// assert the auditor finds it clean (zero false positives). Then seed each
// corruption class into a COPY of the snapshot — exactly the distributed-
// state bugs the auditor exists to catch — and assert the auditor flags
// that class (and no unrelated class, so diagnoses stay actionable):
//
//   * stale suppressed forward  -> delivery-completeness (the PR 4 re-cover
//                                  black hole, reproduced from a covering
//                                  overlay end state)
//   * orphaned covering child   -> covering-forest
//   * leaked matcher slot       -> ghost-state
//   * stranded link buffer      -> quiescence
//   * refcount skew             -> ghost-state
//   * asymmetric / cyclic links -> topology
#include "broker/audit_hook.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace evps {
namespace {

using audit::AuditReport;
using audit::BrokerState;
using audit::Invariant;
using audit::OverlayAuditor;
using audit::OverlaySnapshot;

SimTime sec(double s) { return SimTime::from_seconds(s); }

BrokerConfig covering_config(EngineKind kind = EngineKind::kClees) {
  BrokerConfig cfg;
  cfg.engine.kind = kind;
  cfg.covering = true;
  return cfg;
}

/// The single invariant classes present in a report.
std::set<Invariant> classes_of(const AuditReport& report) {
  std::set<Invariant> out;
  for (const auto& v : report.violations) out.insert(v.invariant);
  return out;
}

bool flags_sub(const AuditReport& report, Invariant inv, SubscriptionId id) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const audit::Violation& v) { return v.invariant == inv && v.sub == id; });
}

BrokerState& broker_named(OverlaySnapshot& snap, const std::string& name) {
  for (BrokerState& b : snap.brokers) {
    if (b.name == name) return b;
  }
  throw std::logic_error("no broker named " + name);
}

/// Consistently delete every trace of `id` from one broker's state — the
/// well-formed way a subscription disappears, so removal alone introduces no
/// ghost-state noise and the surviving violations isolate the routing gap.
void erase_subscription(BrokerState& b, SubscriptionId id) {
  b.engine.installed.erase(id);
  std::erase(b.engine.matcher_ids, id);
  std::erase_if(b.engine.lazy_entries, [&](const audit::LazyEntry& e) { return e.id == id; });
  for (auto& g : b.engine.dedup_groups) std::erase(g.members, id);
  std::erase_if(b.engine.dedup_groups,
                [](const audit::DedupGroup& g) { return g.members.empty(); });
  std::erase_if(b.routes, [&](const audit::RouteEntry& r) { return r.id == id; });
  std::erase_if(b.forest, [&](const audit::ForestNode& n) { return n.id == id; });
  for (auto& n : b.forest) std::erase(n.children, id);
}

/// Covering star overlay: hub + 3 leaves, a wide root subscription R from a
/// client at leaf 1 and a narrow covered subscription S from a client at
/// leaf 0. At the hub, S's forward towards leaf 2 is suppressed citing R —
/// the exact shape whose staleness caused the PR 4 re-cover black hole.
struct CoveringStarTest : ::testing::Test {
  Simulator sim;
  Overlay overlay{sim};
  std::vector<Broker*> brokers;
  PubSubClient* sub_client = nullptr;    // at leaf 0: owns S
  PubSubClient* root_client = nullptr;   // at leaf 1: owns R
  SubscriptionId root_id;
  SubscriptionId covered_id;

  void build(EngineKind kind = EngineKind::kClees) {
    brokers = overlay.build_star(3, covering_config(kind), Duration::millis(5));
    root_client = &overlay.add_client("root_client");
    sub_client = &overlay.add_client("sub_client");
    root_client->connect(*brokers[2], Duration::millis(1));  // edge1
    sub_client->connect(*brokers[1], Duration::millis(1));   // edge0
    root_id = root_client->subscribe("x >= 0; x <= 500");
    sim.run_until(sec(1));
    covered_id = sub_client->subscribe("x >= 100; x <= 300");
    sim.run_until(sec(2));
  }
};

TEST_F(CoveringStarTest, CleanEndStateAuditsClean) {
  build();
  const AuditReport report = audit::audit_overlay(overlay);
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_EQ(report.brokers_audited, 4u);
  EXPECT_EQ(report.subscriptions_audited, 2u);
  // Covering actually suppressed something, or this fixture proves nothing.
  EXPECT_GT(report.witnesses_checked, 0u) << "no covering suppression in play";
}

// The PR 4 regression shape: the covered subscription's forward towards a
// direction was suppressed citing the root, and the root's state in that
// direction later vanished. Publications entering there black-hole.
TEST_F(CoveringStarTest, StaleSuppressedForwardIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Leaf 2 (edge2) never received S (suppressed at the hub citing R). Remove
  // R's state at edge2: a publication entering at edge2 in [100, 300] now
  // has no installed subscription pointing towards the hub.
  erase_subscription(broker_named(snap, "broker_edge2"), root_id);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kDeliveryCompleteness})
      << report.format();
  EXPECT_TRUE(flags_sub(report, Invariant::kDeliveryCompleteness, covered_id)) << report.format();
  // The diagnostic names the failing broker.
  bool named = false;
  for (const auto& v : report.violations) named |= v.broker == "broker_edge2";
  EXPECT_TRUE(named) << report.format();
}

TEST_F(CoveringStarTest, MisdirectedWitnessIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Keep R installed at edge2 but repoint its destination away from the hub
  // (a corrupt routing table): the witness no longer points the right way.
  BrokerState& edge2 = broker_named(snap, "broker_edge2");
  auto it = edge2.engine.installed.find(root_id);
  ASSERT_NE(it, edge2.engine.installed.end());
  it->second.dest = edge2.node;  // nonsense next hop
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(report.has(Invariant::kDeliveryCompleteness)) << report.format();
}

TEST_F(CoveringStarTest, OrphanedCoveringChildIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // At the hub the forest has R as root and S as its child. Detach the
  // parent: point S at an id that is not in the forest.
  BrokerState& hub = broker_named(snap, "broker_core");
  bool mutated = false;
  for (auto& n : hub.forest) {
    if (n.id == covered_id && n.parent.valid()) {
      n.parent = SubscriptionId{999999};
      mutated = true;
    }
    std::erase(n.children, covered_id);
  }
  ASSERT_TRUE(mutated) << "fixture expectation: S is a covered child at the hub\n"
                       << canonical_text(snap);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(flags_sub(report, Invariant::kForest, covered_id)) << report.format();
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kForest}) << report.format();
}

TEST_F(CoveringStarTest, UnprovableParentEdgeIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Invert the covering edge at the hub: claim the narrow S covers the wide
  // R. Structurally well-formed, semantically unprovable.
  BrokerState& hub = broker_named(snap, "broker_core");
  for (auto& n : hub.forest) {
    if (n.id == covered_id) {
      n.parent = SubscriptionId::invalid();
      n.children = {root_id};
    } else if (n.id == root_id) {
      n.parent = covered_id;
      n.children.clear();
    }
  }
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(flags_sub(report, Invariant::kForest, root_id)) << report.format();
}

TEST_F(CoveringStarTest, ForestEngineDesyncIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Drop S from the hub's forest while the engine still has it — the
  // release-build duplicate-add corruption class.
  BrokerState& hub = broker_named(snap, "broker_core");
  std::erase_if(hub.forest, [&](const audit::ForestNode& n) { return n.id == covered_id; });
  for (auto& n : hub.forest) std::erase(n.children, covered_id);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(flags_sub(report, Invariant::kForest, covered_id)) << report.format();
}

TEST_F(CoveringStarTest, LeakedMatcherSlotIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  BrokerState& hub = broker_named(snap, "broker_core");
  hub.engine.matcher_ids.push_back(SubscriptionId{424242});
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(flags_sub(report, Invariant::kGhostState, SubscriptionId{424242}))
      << report.format();
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kGhostState}) << report.format();
}

TEST_F(CoveringStarTest, MissingMatcherInstallIsFlagged) {
  build(EngineKind::kStatic);
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  BrokerState& hub = broker_named(snap, "broker_core");
  ASSERT_FALSE(hub.engine.matcher_ids.empty());
  std::erase(hub.engine.matcher_ids, root_id);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(flags_sub(report, Invariant::kGhostState, root_id)) << report.format();
}

TEST_F(CoveringStarTest, StrandedLinkBatchBufferIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  BrokerState& hub = broker_named(snap, "broker_core");
  hub.pending_links.push_back(audit::PendingLink{hub.broker_neighbors.front(), 2});
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kQuiescence}) << report.format();
  EXPECT_EQ(report.count(Invariant::kQuiescence), 1u);
  // Opting out of the quiescence check accepts mid-run buffers.
  audit::AuditOptions opts;
  opts.check_quiescence = false;
  EXPECT_TRUE(OverlayAuditor(opts).audit(snap).clean());
}

TEST_F(CoveringStarTest, AsymmetricLinkIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  BrokerState& edge2 = broker_named(snap, "broker_edge2");
  edge2.broker_neighbors.clear();
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(report.has(Invariant::kTopology)) << report.format();
}

TEST_F(CoveringStarTest, OverlayCycleIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Close a cycle: edge0 - edge1 become neighbours of each other.
  BrokerState& e0 = broker_named(snap, "broker_edge0");
  BrokerState& e1 = broker_named(snap, "broker_edge1");
  e0.broker_neighbors.push_back(e1.node);
  e1.broker_neighbors.push_back(e0.node);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(report.has(Invariant::kTopology)) << report.format();
}

// --- relational covering interplay -----------------------------------------

/// Same star shape as CoveringStarTest, but the covering edge is only
/// provable in the RELATIONAL domain: both subscriptions are moving zones
/// around a shared evolution variable, so their per-attribute inner shapes
/// are empty and the hub's suppression rests on the octagon proof. The
/// auditor must re-prove exactly that edge (a weaker auditor would flag the
/// clean overlay; a stronger-than-index auditor is fine).
struct RelationalStarTest : ::testing::Test {
  Simulator sim;
  Overlay overlay{sim};
  std::vector<Broker*> brokers;
  PubSubClient* sub_client = nullptr;
  PubSubClient* root_client = nullptr;
  SubscriptionId root_id;
  SubscriptionId covered_id;

  void build() {
    brokers = overlay.build_star(3, covering_config(), Duration::millis(5));
    for (Broker* b : brokers) b->variables().declare_range("ra_c", -100.0, 100.0);
    root_client = &overlay.add_client("root_client");
    sub_client = &overlay.add_client("sub_client");
    root_client->connect(*brokers[2], Duration::millis(1));
    sub_client->connect(*brokers[1], Duration::millis(1));
    brokers[0]->set_variable("ra_c", 10.0);
    sim.run_until(sec(0.5));
    root_id = root_client->subscribe("[tt=0.5] rax >= ra_c - 60; rax <= ra_c + 60");
    sim.run_until(sec(1));
    covered_id = sub_client->subscribe("[tt=0.5] rax >= ra_c - 30; rax <= ra_c + 30");
    sim.run_until(sec(2));
  }
};

TEST_F(RelationalStarTest, CleanRelationalSuppressionAuditsClean) {
  build();
  // Fixture sanity: the hub really did suppress via a relational proof.
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  BrokerState& hub = broker_named(snap, "broker_core");
  bool relational_edge = false;
  for (const auto& n : hub.forest) relational_edge |= (n.id == covered_id && n.parent == root_id);
  ASSERT_TRUE(relational_edge) << "fixture expectation: S covered by R at the hub\n"
                               << canonical_text(snap);
  const AuditReport report = audit::audit_overlay(overlay);
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_GT(report.witnesses_checked, 0u) << "no covering suppression in play";
}

TEST_F(RelationalStarTest, BogusRelationalParentEdgeIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Invert the relational edge: claim the narrow moving zone covers the wide
  // one. The octagon re-proof must fail on it.
  BrokerState& hub = broker_named(snap, "broker_core");
  for (auto& n : hub.forest) {
    if (n.id == covered_id) {
      n.parent = SubscriptionId::invalid();
      n.children = {root_id};
    } else if (n.id == root_id) {
      n.parent = covered_id;
      n.children.clear();
    }
  }
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(flags_sub(report, Invariant::kForest, root_id)) << report.format();
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kForest}) << report.format();
}

TEST_F(RelationalStarTest, StaleRelationallySuppressedForwardIsFlagged) {
  build();
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // S's forward towards edge2 was suppressed citing the relational coverer
  // R; erase R's state at edge2 and the suppression is a black hole.
  erase_subscription(broker_named(snap, "broker_edge2"), root_id);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kDeliveryCompleteness})
      << report.format();
  EXPECT_TRUE(flags_sub(report, Invariant::kDeliveryCompleteness, covered_id)) << report.format();
}

// --- refcount skew (dedup bookkeeping) -------------------------------------

struct DedupLineTest : ::testing::Test {
  Simulator sim;
  Overlay overlay{sim};
  std::vector<Broker*> brokers;
  PubSubClient* a = nullptr;
  PubSubClient* b = nullptr;
  SubscriptionId first;
  SubscriptionId second;

  void build(EngineKind kind) {
    BrokerConfig cfg;
    cfg.engine.kind = kind;
    brokers = overlay.build_line(2, cfg, Duration::millis(5));
    a = &overlay.add_client("a");
    b = &overlay.add_client("b");
    a->connect(*brokers[0], Duration::millis(1));
    b->connect(*brokers[0], Duration::millis(1));
    // Bit-identical predicates from two clients: one dedup group per broker
    // where both land with the same destination (broker1, forwarded hop).
    first = a->subscribe("x >= 0; x <= 10");
    second = b->subscribe("x >= 0; x <= 10");
    sim.run_until(sec(1));
  }
};

TEST_F(DedupLineTest, CleanDedupAuditsClean) {
  build(EngineKind::kStatic);
  const AuditReport report = audit::audit_overlay(overlay);
  EXPECT_TRUE(report.clean()) << report.format();
  // The far broker shares one physical install between the two ids.
  EXPECT_EQ(brokers[1]->engine().deduped_installs(), 1u);
}

TEST_F(DedupLineTest, UntrackedMemberRefcountSkewIsFlagged) {
  build(EngineKind::kStatic);
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // broker1: both subs arrive from broker0 and share one matcher entry.
  // Drop the non-canonical member from its group: the engine now has an
  // installed subscription whose refcount nobody holds.
  BrokerState& far = broker_named(snap, "broker1");
  bool mutated = false;
  for (auto& g : far.engine.dedup_groups) {
    if (g.members.size() == 2) {
      g.members.pop_back();
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated) << canonical_text(snap);
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kGhostState}) << report.format();
}

TEST_F(DedupLineTest, DeadMemberRefcountSkewIsFlagged) {
  build(EngineKind::kStatic);
  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  // Inverse skew: the group still references an id the engine dropped.
  BrokerState& far = broker_named(snap, "broker1");
  for (auto& g : far.engine.dedup_groups) {
    if (g.members.size() == 2) g.members.push_back(SubscriptionId{777777});
  }
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_TRUE(flags_sub(report, Invariant::kGhostState, SubscriptionId{777777}))
      << report.format();
}

TEST_F(DedupLineTest, LazyDedupSkewIsFlagged) {
  // LEES shares LEME parts between identical fully-evolving subscriptions.
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  brokers = overlay.build_line(2, cfg, Duration::millis(5));
  a = &overlay.add_client("a");
  a->connect(*brokers[0], Duration::millis(1));
  for (Broker* br : brokers) br->variables().declare_range("load", 0, 1);
  brokers[0]->set_variable("load", 0.5);
  sim.run_until(sec(0.5));
  first = a->subscribe("[tt=1] x <= 100 * load");
  second = a->subscribe("[tt=1] x <= 100 * load");
  sim.run_until(sec(1));

  OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  const AuditReport clean = OverlayAuditor().audit(snap);
  EXPECT_TRUE(clean.clean()) << clean.format();

  // Strand the canonical's lazy entry: the LEME evaluates a part whose
  // owner group no longer exists.
  BrokerState& home = broker_named(snap, "broker0");
  std::erase_if(home.engine.dedup_groups, [](const audit::DedupGroup& g) { return g.lazy; });
  const AuditReport report = OverlayAuditor().audit(snap);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(classes_of(report), std::set<Invariant>{Invariant::kGhostState}) << report.format();
}

// --- hook + report plumbing -------------------------------------------------

TEST(SimAuditHook, CleanOverlayPassesAndThrowsOnCorruption) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kClees;
  auto brokers = overlay.build_line(3, cfg, Duration::millis(5));
  PubSubClient& sub = overlay.add_client("sub");
  sub.connect(*brokers[0], Duration::millis(1));
  sub.subscribe("x >= 0");
  sim.run_until(sec(1));

  const audit::SimAuditHook hook(overlay);
  const AuditReport report = hook.check();  // must not throw
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.brokers_audited, 3u);

  AuditReport bad;
  bad.violations.push_back(audit::Violation{Invariant::kQuiescence, "broker0",
                                            SubscriptionId::invalid(), "stranded buffer", {}});
  const audit::AuditFailure failure(std::move(bad));
  EXPECT_NE(std::string(failure.what()).find("stranded buffer"), std::string::npos);
  EXPECT_EQ(failure.report().violations.size(), 1u);
}

TEST(AuditReport, JsonRendering) {
  AuditReport report;
  report.brokers_audited = 2;
  report.violations.push_back(audit::Violation{
      Invariant::kDeliveryCompleteness, "broker\"1", SubscriptionId{7}, "black hole",
      {"hop \"a\""}});
  std::ostringstream os;
  report.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"invariant\":\"delivery-completeness\""), std::string::npos);
  EXPECT_NE(json.find("\"sub\":7"), std::string::npos);
  EXPECT_NE(json.find("\\\"a\\\""), std::string::npos);  // witness escaping
}

}  // namespace
}  // namespace evps
