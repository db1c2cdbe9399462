// Soundness of the covering analysis (analysis/covering.hpp), checked two
// ways:
//
//   * property sweep — over a thousand randomly generated subscription
//     pairs, every kCovers verdict is validated against concrete evaluation:
//     no sampled publication (numeric, string, NaN, missing-attribute) under
//     any sampled variable assignment and evaluation instant may match the
//     covered subscription without matching the coverer;
//   * end-to-end — a multi-broker advertisement-routed overlay runs the same
//     scripted workload (nested subscriptions, evolving bounds, variable
//     churn, coverer removal mid-run) with covering-based routing off and
//     on. Delivery logs must be bit-identical; the covering run must save
//     subscription-dissemination messages;
//   * rotated zones — the game_rotated workload (workloads/star.hpp) over
//     many seeds, with every coverer leaving mid-run and, in half the runs,
//     arriving last so that it demotes the narrower zones: covering off,
//     per-attribute and relational must deliver bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/covering.hpp"
#include "broker/audit_hook.hpp"
#include "broker/overlay.hpp"
#include "common/rng.hpp"
#include "expr_oracle.hpp"
#include "message/codec.hpp"
#include "metrics/accuracy.hpp"
#include "workloads/star.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

constexpr int kVarCount = 2;
const char* const kVarNames[] = {"cs_v0", "cs_v1"};
const char* const kAttrs[] = {"csx", "csy"};
const char* const kStrings[] = {"alpha", "beta", "gamma"};

struct VarDecl {
  double lo = 0;
  double hi = 0;
  bool bound = false;
};

std::string num(Rng& rng, double lo, double hi) {
  std::ostringstream os;
  os << rng.uniform(lo, hi);
  return os.str();
}

const char* const kOps[] = {"<", "<=", ">", ">=", "=", "!="};

/// `attr OP c` for an int c at or next to sign * 2^53, where ints stop being
/// their own doubles (2^53 + 1 rounds to 2^53) but still compare exactly
/// with each other. `ints` collects c for the probe generator.
std::string int_pred(Rng& rng, const char* attr, int sign, std::vector<std::int64_t>& ints) {
  const std::int64_t c = sign * ((std::int64_t{1} << 53) + rng.uniform_int(-1, 2));
  ints.push_back(c);
  return std::string(attr) + " " + kOps[rng.uniform_int(0, 5)] + " " + std::to_string(c);
}

/// One random predicate as codec text. `constants` collects double operands
/// and `ints` int operands, so the probe generator can aim publications
/// exactly at the endpoints.
std::string random_pred(Rng& rng, std::vector<double>& constants,
                        std::vector<std::int64_t>& ints) {
  const char* attr = kAttrs[rng.uniform_int(0, 1)];
  const double roll = rng.uniform();
  std::ostringstream os;
  if (roll < 0.15) {
    // String constant; equality ops mostly, occasionally an ordering op to
    // exercise the conservative lexicographic path.
    const char* op = rng.bernoulli(0.8) ? (rng.bernoulli(0.5) ? "=" : "!=")
                                        : kOps[rng.uniform_int(0, 3)];
    os << attr << " " << op << " '" << kStrings[rng.uniform_int(0, 2)] << "'";
    return os.str();
  }
  if (roll < 0.25) return int_pred(rng, attr, rng.bernoulli(0.5) ? 1 : -1, ints);
  const char* op = kOps[rng.uniform_int(0, 5)];
  if (roll < 0.55) {
    const double c = rng.bernoulli(0.3) ? std::floor(rng.uniform(-15.0, 15.0))
                                        : rng.uniform(-15.0, 15.0);
    constants.push_back(c);
    std::ostringstream cs;
    cs.precision(17);
    cs << c;
    os << attr << " " << op << " " << cs.str();
    return os.str();
  }
  // Evolving bound: linear in one variable or t, occasionally min/max.
  const std::string var = rng.bernoulli(0.3) ? "t" : kVarNames[rng.uniform_int(0, kVarCount - 1)];
  const std::string base = num(rng, -12.0, 12.0);
  const std::string coef = num(rng, -4.0, 4.0);
  if (rng.bernoulli(0.2)) {
    os << attr << " " << op << " min(" << base << " + " << coef << " * " << var << ", "
       << num(rng, -12.0, 12.0) << ")";
  } else {
    os << attr << " " << op << " " << base << " + " << coef << " * " << var;
  }
  return os.str();
}

std::string random_sub_text(Rng& rng, int npreds, std::vector<double>& constants,
                            std::vector<std::int64_t>& ints) {
  std::string text;
  for (int i = 0; i < npreds; ++i) {
    if (i != 0) text += "; ";
    text += random_pred(rng, constants, ints);
  }
  return text;
}

TEST(CoveringSoundness, KCoversNeverViolatedOverSampledAssignments) {
  std::uint64_t covered_pairs = 0;
  std::uint64_t unknown_pairs = 0;
  std::uint64_t probes = 0;  // probes run against kCovers pairs

  for (std::uint64_t seed = 1; seed <= 1400; ++seed) {
    Rng rng{seed};
    VariableRegistry reg;
    VarDecl decls[kVarCount];
    for (int i = 0; i < kVarCount; ++i) {
      decls[i].lo = rng.uniform(-5.0, 5.0);
      decls[i].hi = rng.bernoulli(0.25) ? decls[i].lo : decls[i].lo + rng.uniform(0.0, 5.0);
      reg.declare_range(kVarNames[i], decls[i].lo, decls[i].hi);
      decls[i].bound = rng.bernoulli(0.8);
      if (decls[i].bound) {
        reg.set(kVarNames[i], rng.uniform(decls[i].lo, decls[i].hi), SimTime::zero());
      }
    }

    std::vector<double> constants;
    std::vector<std::int64_t> ints;
    std::string a_text;
    std::string b_text;
    if (rng.bernoulli(0.1)) {
      // Two single int bounds on one attribute next to 2^53: comparing the
      // rounded doubles would call many of these pairs covered.
      const char* attr = kAttrs[rng.uniform_int(0, 1)];
      const int sign = rng.bernoulli(0.5) ? 1 : -1;
      a_text = int_pred(rng, attr, sign, ints);
      b_text = int_pred(rng, attr, sign, ints);
    } else {
      a_text = random_sub_text(rng, static_cast<int>(rng.uniform_int(1, 2)), constants, ints);
      // Bias towards coverable pairs: B often starts as a copy of A with
      // extra predicates (a strictly more constrained subscription).
      if (rng.bernoulli(0.6)) {
        b_text = a_text;
        const int extra = static_cast<int>(rng.uniform_int(0, 2));
        for (int i = 0; i < extra; ++i) b_text += "; " + random_pred(rng, constants, ints);
      } else {
        b_text = random_sub_text(rng, static_cast<int>(rng.uniform_int(1, 3)), constants, ints);
      }
    }

    Subscription a = parse_subscription(a_text);
    a.set_id(SubscriptionId{seed * 2});
    Subscription b = parse_subscription(b_text);
    b.set_id(SubscriptionId{seed * 2 + 1});

    const CoverVerdict verdict = covers(a, b, reg);
    if (verdict == CoverVerdict::kUnknown) {
      ++unknown_pairs;
      continue;  // no claim made, nothing to falsify
    }
    ++covered_pairs;

    EvalScope scope;
    double clock = 0.0;
    for (int round = 0; round < 6; ++round) {
      clock += rng.uniform(0.1, 2.0);
      for (int i = 0; i < kVarCount; ++i) {
        if (!decls[i].bound) continue;
        // Endpoint values drive the envelope extremes.
        const double v = rng.bernoulli(0.3)
                             ? (rng.bernoulli(0.5) ? decls[i].lo : decls[i].hi)
                             : rng.uniform(decls[i].lo, decls[i].hi);
        reg.set(kVarNames[i], v, sec(clock));
      }
      scope.rebind(&reg, sec(clock + rng.uniform(0.0, 0.5)));
      scope.set_epoch(SimTime::zero());

      std::vector<Value> probe_values;
      probe_values.emplace_back(rng.uniform(-25.0, 25.0));
      probe_values.emplace_back(std::numeric_limits<double>::quiet_NaN());
      probe_values.emplace_back(std::string(kStrings[rng.uniform_int(0, 2)]));
      for (const double c : constants) {
        probe_values.emplace_back(c);
        probe_values.emplace_back(std::nextafter(c, 1e300));
        probe_values.emplace_back(std::nextafter(c, -1e300));
      }
      // Int publications compare with int constants exactly (Value::compare).
      for (const std::int64_t c : ints) {
        for (std::int64_t d = -1; d <= 1; ++d) probe_values.emplace_back(c + d);
      }

      for (const Value& px : probe_values) {
        for (int py_mode = 0; py_mode < 3; ++py_mode) {
          Publication pub;
          pub.set(kAttrs[0], px);
          if (py_mode == 0) {
            pub.set(kAttrs[1], probe_values[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(probe_values.size()) - 1))]);
          } else if (py_mode == 1) {
            pub.set(kAttrs[1], Value{rng.uniform(-25.0, 25.0)});
          }
          // py_mode == 2: attribute absent (presence matters for covering).
          ++probes;
          if (oracle::matches(b, pub, scope)) {
            ASSERT_TRUE(oracle::matches(a, pub, scope))
                << "seed " << seed << " t=" << clock << ": publication matches covered sub\n"
                << "  A: " << a_text << "\n  B: " << b_text << "\n  pub: " << serialize(pub);
          }
        }
      }
    }
  }

  // The generator must actually exercise the verdict being tested.
  EXPECT_GE(covered_pairs, 100u);
  EXPECT_GE(unknown_pairs, 100u);
  EXPECT_GE(probes, 20000u);
}

// --- end-to-end: delivery sets identical, dissemination reduced -------------

struct RunResult {
  /// Per subscriber client: (delivery time in microseconds, serialized
  /// publication) — the full observable outcome.
  std::vector<std::vector<std::pair<std::int64_t, std::string>>> deliveries;
  std::uint64_t subscription_msgs = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t resubscribes = 0;
  std::uint64_t demote_unsubscribes = 0;
};

RunResult run_scenario(bool covering_on) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = covering_on;
  auto brokers = overlay.build_star(3, cfg, Duration::millis(5));
  for (auto* b : brokers) b->variables().declare_range("cs_load", 0.0, 1.0);

  PubSubClient& publisher = overlay.add_client("pub");
  PubSubClient& s1 = overlay.add_client("s1");
  PubSubClient& s2 = overlay.add_client("s2");
  PubSubClient& s3 = overlay.add_client("s3");
  PubSubClient& s4 = overlay.add_client("s4");
  PubSubClient& s5 = overlay.add_client("s5");
  publisher.connect(*brokers[1], Duration::millis(1));
  s1.connect(*brokers[2], Duration::millis(1));
  s2.connect(*brokers[2], Duration::millis(1));
  s3.connect(*brokers[2], Duration::millis(1));
  s4.connect(*brokers[3], Duration::millis(1));
  s5.connect(*brokers[2], Duration::millis(1));

  brokers[0]->set_variable("cs_load", 0.4);
  publisher.advertise({parse_predicate("price >= 0"), parse_predicate("price <= 100")});
  sim.run_until(sec(1));

  // s1 is the coverer; s2 (static) and s3 (evolving, envelope [30, 40]) are
  // covered; s4 sits on another edge and overlaps s1 without being covered.
  SubscriptionId root_id{};
  sim.after(Duration::seconds(1), [&] { root_id = s1.subscribe("price >= 0; price <= 80"); });
  sim.after(Duration::seconds(1.2), [&] { s2.subscribe("price >= 10; price <= 20"); });
  sim.after(Duration::seconds(1.4), [&] { s3.subscribe("[tt=0.5] price >= 10; price <= 30 + 10 * cs_load"); });
  sim.after(Duration::seconds(1.6), [&] { s4.subscribe("price >= 60; price <= 90"); });
  // Covered by s1 now AND by s2 after s1 leaves: on uncover it re-attaches
  // to the freshly promoted s2 silently instead of re-disseminating.
  sim.after(Duration::seconds(1.8), [&] { s5.subscribe("price >= 12; price <= 18"); });

  const double prices[] = {5, 15, 25, 35, 45, 65, 85, 95};
  double when = 2.0;
  for (const double p : prices) {
    sim.after(Duration::seconds(when), [&publisher, p] {
      publisher.publish("price = " + std::to_string(p));
    });
    when += 0.25;
  }

  // Variable churn moves s3's live bound inside its envelope.
  sim.after(Duration::seconds(4.1), [&] { brokers[0]->set_variable("cs_load", 0.9); });
  sim.after(Duration::seconds(4.2), [&publisher] { publisher.publish("price = 38"); });

  // Remove the coverer mid-run: covered subscriptions must be promoted and
  // re-disseminated before the unsubscribe propagates (no delivery gap).
  sim.after(Duration::seconds(5), [&] { s1.unsubscribe(root_id); });
  when = 6.0;
  for (const double p : prices) {
    sim.after(Duration::seconds(when), [&publisher, p] {
      publisher.publish("price = " + std::to_string(p));
    });
    when += 0.25;
  }
  sim.run_until(sec(10));

  // End-state invariant audit: the covering promotions, variable churn and
  // the mid-run unsubscribe must leave globally consistent routing state
  // (DESIGN.md §15) — throws AuditFailure with the violation list otherwise.
  audit::SimAuditHook(overlay).check();

  RunResult result;
  for (const PubSubClient* c : {&s1, &s2, &s3, &s4, &s5}) {
    std::vector<std::pair<std::int64_t, std::string>> log;
    for (const auto& d : c->deliveries()) {
      log.emplace_back(d.when.micros(), serialize(d.pub));
    }
    result.deliveries.push_back(std::move(log));
  }
  for (const auto& b : overlay.brokers()) {
    result.subscription_msgs += b->stats().subscription_msgs;
    result.suppressed += b->covering_counters().suppressed_forwards;
    result.resubscribes += b->covering_counters().resubscribes;
    result.demote_unsubscribes += b->covering_counters().demote_unsubscribes;
  }
  return result;
}

TEST(CoveringSoundness, BrokerDeliveriesBitIdenticalWithCoveringRouting) {
  const RunResult off = run_scenario(false);
  const RunResult on = run_scenario(true);

  ASSERT_EQ(off.deliveries.size(), on.deliveries.size());
  for (std::size_t c = 0; c < off.deliveries.size(); ++c) {
    EXPECT_EQ(off.deliveries[c], on.deliveries[c]) << "client " << c;
  }
  // Each subscriber saw real traffic (the scenario is not vacuous).
  for (const auto& log : off.deliveries) EXPECT_FALSE(log.empty());

  // Covering must have fired and must have saved dissemination messages.
  EXPECT_EQ(off.suppressed, 0u);
  EXPECT_GT(on.suppressed, 0u);
  EXPECT_GT(on.resubscribes, 0u);  // uncover-on-remove exercised
  EXPECT_LT(on.subscription_msgs, off.subscription_msgs);
}

// --- end-to-end: parametric updates that re-parent or demote ----------------
//
// Line e1 - hub - e2, publishers on both ends. At the hub:
//   A [0,30]   (local client)  — forwarded towards e1 and e2
//   B [15,70]  (client on e1)  — forwarded towards e2 only (never back
//                                towards its own origin e1)
//   W [80,95]  (local client)  — forwarded towards e1 and e2
//   V [82,93]  (local client)  — covered by W, fully suppressed
//   X [10,20]  (local client)  — covered by A, fully suppressed
//
// Then X updates to [20,60]: it leaves A and re-attaches under B, whose
// reach misses the e1 direction — the hub must forward the updated X
// towards e1 or pub1's publications in (30,60] are lost forever. V updates
// to [75,100]: it becomes a root, demotes W, and W's now-redundant upstream
// forwards are retracted. A deliberately oversized update (more values than
// predicates) is dropped at the first broker without desyncing the engine
// from the covering index.
RunResult run_update_scenario(bool covering_on) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = covering_on;
  auto brokers = overlay.build_line(3, cfg, Duration::millis(5));
  Broker& e1 = *brokers[0];
  Broker& hub = *brokers[1];
  Broker& e2 = *brokers[2];

  PubSubClient& pub1 = overlay.add_client("pub1");
  PubSubClient& pub2 = overlay.add_client("pub2");
  PubSubClient& s_a = overlay.add_client("ua");
  PubSubClient& s_b = overlay.add_client("ub");
  PubSubClient& s_x = overlay.add_client("ux");
  PubSubClient& s_w = overlay.add_client("uw");
  PubSubClient& s_v = overlay.add_client("uv");
  pub1.connect(e1, Duration::millis(1));
  pub2.connect(e2, Duration::millis(1));
  s_b.connect(e1, Duration::millis(1));
  s_a.connect(hub, Duration::millis(1));
  s_x.connect(hub, Duration::millis(1));
  s_w.connect(hub, Duration::millis(1));
  s_v.connect(hub, Duration::millis(1));

  pub1.advertise({parse_predicate("price >= 0"), parse_predicate("price <= 100")});
  pub2.advertise({parse_predicate("price >= 0"), parse_predicate("price <= 100")});
  sim.run_until(sec(1));

  SubscriptionId x_id{};
  SubscriptionId v_id{};
  sim.after(Duration::seconds(0.2), [&] { s_a.subscribe("price >= 0; price <= 30"); });
  sim.after(Duration::seconds(0.4), [&] { s_b.subscribe("price >= 15; price <= 70"); });
  sim.after(Duration::seconds(0.6), [&] { s_w.subscribe("price >= 80; price <= 95"); });
  sim.after(Duration::seconds(0.8), [&] { v_id = s_v.subscribe("price >= 82; price <= 93"); });
  sim.after(Duration::seconds(1.0), [&] { x_id = s_x.subscribe("price >= 10; price <= 20"); });

  const double prices[] = {18, 25, 40, 55, 85};
  double when = 1.5;
  for (const double p : prices) {
    sim.after(Duration::seconds(when), [&pub1, p] { pub1.publish("price = " + std::to_string(p)); });
    sim.after(Duration::seconds(when + 0.1),
              [&pub2, p] { pub2.publish("price = " + std::to_string(p)); });
    when += 0.25;
  }

  // Re-parent: X hops from A's covering set into B's.
  sim.after(Duration::seconds(3.0),
            [&] { s_x.update_subscription(x_id, {Value{20.0}, Value{60.0}}); });
  // Demote-on-update: V widens past its coverer W.
  sim.after(Duration::seconds(3.2),
            [&] { s_v.update_subscription(v_id, {Value{75.0}, Value{100.0}}); });
  // Oversized on purpose: three values for two predicates.
  sim.after(Duration::seconds(3.4), [&] {
    s_x.update_subscription(x_id, {std::nullopt, std::nullopt, Value{99.0}});
  });

  when = 4.0;
  for (const double p : prices) {
    sim.after(Duration::seconds(when), [&pub1, p] { pub1.publish("price = " + std::to_string(p)); });
    sim.after(Duration::seconds(when + 0.1),
              [&pub2, p] { pub2.publish("price = " + std::to_string(p)); });
    when += 0.25;
  }
  sim.run_until(sec(8));

  RunResult result;
  for (const PubSubClient* c : {&s_a, &s_b, &s_x, &s_w, &s_v}) {
    std::vector<std::pair<std::int64_t, std::string>> log;
    for (const auto& d : c->deliveries()) {
      log.emplace_back(d.when.micros(), serialize(d.pub));
    }
    result.deliveries.push_back(std::move(log));
  }
  for (const auto& b : overlay.brokers()) {
    result.subscription_msgs += b->stats().subscription_msgs;
    result.suppressed += b->covering_counters().suppressed_forwards;
    result.resubscribes += b->covering_counters().resubscribes;
    result.demote_unsubscribes += b->covering_counters().demote_unsubscribes;
  }
  return result;
}

TEST(CoveringSoundness, UpdateReparentingKeepsDeliveriesBitIdentical) {
  const RunResult off = run_update_scenario(false);
  const RunResult on = run_update_scenario(true);

  ASSERT_EQ(off.deliveries.size(), on.deliveries.size());
  for (std::size_t c = 0; c < off.deliveries.size(); ++c) {
    EXPECT_EQ(off.deliveries[c], on.deliveries[c]) << "client " << c;
  }
  for (const auto& log : off.deliveries) EXPECT_FALSE(log.empty());
  // The regression probe is real traffic: X matches 18 twice before the
  // update and 25/40/55 from both publishers after it — the latter three
  // from pub1 only arrive if the hub forwarded the re-parented X towards
  // e1, the direction its new root B never reaches.
  EXPECT_EQ(off.deliveries[2].size(), 8u);

  EXPECT_EQ(off.suppressed, 0u);
  EXPECT_GT(on.suppressed, 0u);
  EXPECT_GT(on.resubscribes, 0u);         // re-parent + promoted-root forwards
  EXPECT_GT(on.demote_unsubscribes, 0u);  // W retracted behind the updated V
  EXPECT_LT(on.subscription_msgs, off.subscription_msgs);
}

// --- rotated zones: deliveries identical across covering modes --------------

struct RotatedRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t relational_proofs = 0;
  std::uint64_t demote_unsubscribes = 0;
  std::uint64_t resubscribes = 0;
};

RotatedRun run_rotated(const StarWorkload& w, bool covering, bool relational) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = covering;
  cfg.relational_covering = relational;
  run_star(w, cfg, /*central=*/false, overlay);
  RotatedRun r;
  r.fingerprint = delivery_fingerprint(overlay);
  for (const auto& c : overlay.clients()) r.deliveries += c->deliveries().size();
  for (const auto& b : overlay.brokers()) {
    r.relational_proofs += b->covering_stats().relational;
    r.demote_unsubscribes += b->covering_counters().demote_unsubscribes;
    r.resubscribes += b->covering_counters().resubscribes;
  }
  return r;
}

TEST(CoveringSoundness, RotatedZonesDeliveriesIdenticalAcrossCoveringModes) {
  std::uint64_t demotes = 0;
  std::uint64_t resubscribes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const std::size_t clusters : {std::size_t{3}, std::size_t{12}}) {
      for (const bool coverer_last : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(clusters) +
                     " clusters, coverer " + (coverer_last ? "last" : "first"));
        StarWorkload w = make_rotated(seed, clusters);
        for (std::size_t k = 0; k < clusters; ++k) {
          // Each cluster generates its coverer first. Moved last, it arrives
          // after the narrower zones and demotes the ones it covers.
          const std::size_t first = k * kRotatedZonesPerCluster;
          const std::size_t last = first + kRotatedZonesPerCluster - 1;
          if (coverer_last) {
            const auto begin = w.subs.begin() + static_cast<std::ptrdiff_t>(first);
            std::rotate(begin, begin + 1, begin + kRotatedZonesPerCluster);
          }
          w.unsubs.push_back({9.0, coverer_last ? last : first});
        }
        const RotatedRun off = run_rotated(w, false, false);
        const RotatedRun per_attr = run_rotated(w, true, false);
        const RotatedRun rel = run_rotated(w, true, true);
        EXPECT_GT(off.deliveries, 0u);
        EXPECT_EQ(per_attr.fingerprint, off.fingerprint);
        EXPECT_EQ(rel.fingerprint, off.fingerprint);
        EXPECT_GT(rel.relational_proofs, 0u);
        demotes += rel.demote_unsubscribes;
        resubscribes += rel.resubscribes;
      }
    }
  }
  // The sweep exercises both covering transitions the workload exists for.
  EXPECT_GT(demotes, 0u);
  EXPECT_GT(resubscribes, 0u);
}

}  // namespace
}  // namespace evps
