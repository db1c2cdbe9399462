// End-to-end link batching equivalence (DESIGN.md §14).
//
// The contract under test: with a zero flush deadline, routing publications
// through the per-link batcher (PublishBatchMsg towards neighbour brokers,
// DeliveryBatchMsg towards clients) is observationally IDENTICAL to the
// per-message path — same deliveries, same timestamps, same per-client
// order, bit for bit — across overlay topologies, engines, routing modes and
// batch widths, under a workload that mixes bursts, staggered singles,
// evolution-variable updates, an unsubscribe wave and control traffic
// interleaved with pending batches (the barrier path).
//
// With a positive deadline the batched run trades bounded lateness for
// fuller batches: the delivery SET and per-client order still match, and
// every delivery lands within (hops * deadline) of its per-message
// timestamp.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "broker/overlay.hpp"
#include "common/rng.hpp"
#include "message/codec.hpp"
#include "metrics/traffic.hpp"

namespace evps {
namespace {

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

enum class Topology { kLine, kStar };

struct ScenarioConfig {
  Topology topology = Topology::kLine;
  EngineKind engine = EngineKind::kLees;
  RoutingMode routing = RoutingMode::kFlooding;
  bool covering = false;
  bool snapshot_consistency = false;
  std::size_t link_batch_size = 1;
  Duration deadline = Duration::zero();
};

struct ScenarioResult {
  /// Flattened, client-ordered `name@micros:id:payload` log — the
  /// bit-identity witness (timestamps included).
  std::vector<std::string> log;
  /// Per-client `id:payload` sequences and timestamps, for the
  /// positive-deadline assertions (order/set without timestamps).
  std::map<std::string, std::vector<std::string>> per_client;
  std::map<std::string, std::vector<std::int64_t>> times;
  LinkBatchCounters counters;
  std::uint64_t stats_publications = 0;
  std::uint64_t stats_deliveries = 0;
  std::uint64_t delivery_batch_envelopes = 0;
  std::uint64_t delivery_batch_events = 0;
  std::size_t broker_count = 0;
};

constexpr int kSubsPerBroker = 3;

/// One deterministic workload, heavy on the batching-relevant interleavings:
///   - 6 bursts of 12 publications in one virtual instant each (batch
///     formation), the first burst immediately chased by a variable update
///     from a second client on the entry broker (barrier while pending);
///   - 15 staggered singles (batch-of-1 scalar framing);
///   - an unsubscribe wave, then a second burst round against the changed
///     subscription population;
///   - evolving subscriptions scaled by `load`, updated mid-run.
ScenarioResult run_scenario(const ScenarioConfig& sc) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = sc.engine;
  cfg.routing = sc.routing;
  cfg.covering = sc.covering;
  cfg.snapshot_consistency = sc.snapshot_consistency;
  cfg.link_batch_size = sc.link_batch_size;
  cfg.link_flush_deadline = sc.deadline;

  std::vector<Broker*> brokers = sc.topology == Topology::kLine
                                     ? overlay.build_line(4, cfg, Duration::millis(5))
                                     : overlay.build_star(4, cfg, Duration::millis(5));
  for (auto* b : brokers) b->variables().declare_range("load", 0.0, 1.0);
  brokers[0]->set_variable("load", 0.5);

  // Publisher and the control client share the entry broker, so a burst and
  // the chasing variable update arrive in the same virtual instant.
  Broker& entry = *brokers[sc.topology == Topology::kLine ? 0 : 1];
  PubSubClient& publisher = overlay.add_client("pub");
  publisher.connect(entry, Duration::millis(1));
  PubSubClient& control = overlay.add_client("ctl");
  control.connect(entry, Duration::millis(1));

  ScenarioResult r;
  r.broker_count = brokers.size();

  // Count grouped deliveries on the wire (clients are the non-broker nodes).
  const NodeId max_broker_node = brokers.back()->node_id();
  overlay.network().add_tap([&](const Envelope& env, SimTime) {
    if (env.to.value() > max_broker_node.value() &&
        std::holds_alternative<DeliveryBatchMsg>(env.msg)) {
      ++r.delivery_batch_envelopes;
      r.delivery_batch_events += publications_carried(env.msg);
    }
  });

  Rng rng{4242};
  std::vector<PubSubClient*> subscribers;
  std::vector<SubscriptionId> sub_ids;
  std::vector<std::string> sub_texts;
  for (std::size_t bi = 0; bi < brokers.size(); ++bi) {
    for (int s = 0; s < kSubsPerBroker; ++s) {
      const double cx = rng.uniform(100.0, 900.0);
      const double cy = rng.uniform(100.0, 900.0);
      const double hw = rng.uniform(120.0, 350.0);
      if (s == 1) {
        // Evolving: the x reach scales with `load` in [0, 1].
        sub_texts.push_back("[tt=0.5] x >= " + fmt_num(cx - hw) + "; x <= " + fmt_num(cx) +
                            " + " + fmt_num(hw) + " * load; y >= " + fmt_num(cy - hw) +
                            "; y <= " + fmt_num(cy + hw));
      } else {
        sub_texts.push_back("x >= " + fmt_num(cx - hw) + "; x <= " + fmt_num(cx + hw) +
                            "; y >= " + fmt_num(cy - hw) + "; y <= " + fmt_num(cy + hw));
      }
      PubSubClient& c = overlay.add_client("sub" + std::to_string(bi) + "_" + std::to_string(s));
      c.connect(*brokers[bi], Duration::millis(1));
      subscribers.push_back(&c);
    }
  }
  sub_ids.resize(sub_texts.size());

  std::vector<std::string> burst_pubs;
  for (int i = 0; i < 12 * 12; ++i) {
    burst_pubs.push_back("x = " + fmt_num(rng.uniform(0.0, 1000.0)) +
                         "; y = " + fmt_num(rng.uniform(0.0, 1000.0)));
  }
  std::vector<std::string> single_pubs;
  for (int i = 0; i < 15; ++i) {
    single_pubs.push_back("x = " + fmt_num(rng.uniform(0.0, 1000.0)) +
                          "; y = " + fmt_num(rng.uniform(0.0, 1000.0)));
  }

  sim.after(Duration::zero(), [&] {
    publisher.advertise(parse_subscription("x >= 0; x <= 1000; y >= 0; y <= 1000").predicates());
  });
  for (std::size_t i = 0; i < sub_texts.size(); ++i) {
    sim.after(Duration::seconds(1.0 + 0.01 * static_cast<double>(i)),
              [&, i] { sub_ids[i] = subscribers[i]->subscribe(sub_texts[i]); });
  }
  for (int burst = 0; burst < 6; ++burst) {
    sim.after(Duration::seconds(3.0 + 0.05 * burst), [&, burst] {
      for (int p = 0; p < 12; ++p) {
        publisher.publish(burst_pubs[static_cast<std::size_t>(burst) * 12 + p]);
      }
      // Chase the first burst with control traffic in the same instant: its
      // broker-to-broker forward must barrier-flush the pending batches.
      if (burst == 0) control.send_var_update("load", 0.8);
    });
  }
  for (std::size_t i = 0; i < single_pubs.size(); ++i) {
    sim.after(Duration::seconds(5.0 + 0.03 * static_cast<double>(i)),
              [&, i] { publisher.publish(single_pubs[i]); });
  }
  sim.after(Duration::seconds(6.0), [&] { control.send_var_update("load", 0.2); });
  for (std::size_t i = 0; i < sub_ids.size(); i += 4) {
    sim.after(Duration::seconds(7.0 + 0.01 * static_cast<double>(i)),
              [&, i] { subscribers[i]->unsubscribe(sub_ids[i]); });
  }
  for (int burst = 6; burst < 12; ++burst) {
    sim.after(Duration::seconds(8.0 + 0.05 * burst), [&, burst] {
      for (int p = 0; p < 12; ++p) {
        publisher.publish(burst_pubs[static_cast<std::size_t>(burst) * 12 + p]);
      }
    });
  }
  sim.run_until(SimTime::from_seconds(15.0));

  for (const PubSubClient* c : subscribers) {
    for (const auto& d : c->deliveries()) {
      const std::string payload = std::to_string(d.pub.id().value()) + ":" + serialize(d.pub);
      r.log.push_back(c->name() + "@" + std::to_string(d.when.micros()) + ":" + payload);
      r.per_client[c->name()].push_back(payload);
      r.times[c->name()].push_back(d.when.micros());
    }
  }
  r.counters = aggregate_link_counters(overlay);
  for (const auto& b : overlay.brokers()) {
    r.stats_publications += b->stats().publications;
    r.stats_deliveries += b->stats().deliveries;
  }
  return r;
}

ScenarioConfig baseline_of(ScenarioConfig sc) {
  sc.link_batch_size = 1;
  sc.deadline = Duration::zero();
  return sc;
}

class LinkBatchSweep : public ::testing::TestWithParam<std::tuple<Topology, EngineKind,
                                                                  RoutingMode>> {};

/// The tentpole acceptance check: every link batch width is bit-identical —
/// timestamps included — to the per-message path, per topology, engine and
/// routing mode. Downstream brokers match each arriving batch with one
/// match_batch call, so this also covers batched matching.
TEST_P(LinkBatchSweep, BitIdenticalToPerMessagePath) {
  const auto [topology, engine, routing] = GetParam();
  ScenarioConfig sc;
  sc.topology = topology;
  sc.engine = engine;
  sc.routing = routing;
  const ScenarioResult base = run_scenario(baseline_of(sc));
  ASSERT_FALSE(base.log.empty());

  const std::size_t widths[] = {2, 8, 64, 256};
  for (const std::size_t link_batch : widths) {
    ScenarioConfig batched = sc;
    batched.link_batch_size = link_batch;
    const ScenarioResult got = run_scenario(batched);
    EXPECT_EQ(got.log, base.log) << "diverged at link_batch=" << link_batch;
    // Events carried and broker-side event stats are invariant under
    // batching; only envelope counts may shrink.
    EXPECT_EQ(got.counters.events, base.counters.events);
    EXPECT_EQ(got.stats_publications, base.stats_publications);
    EXPECT_EQ(got.stats_deliveries, base.stats_deliveries);
    EXPECT_LE(got.counters.messages(), base.counters.messages());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, LinkBatchSweep,
    ::testing::Values(std::make_tuple(Topology::kLine, EngineKind::kLees, RoutingMode::kFlooding),
                      std::make_tuple(Topology::kLine, EngineKind::kClees,
                                      RoutingMode::kAdvertisement),
                      std::make_tuple(Topology::kStar, EngineKind::kLees,
                                      RoutingMode::kAdvertisement),
                      std::make_tuple(Topology::kStar, EngineKind::kClees,
                                      RoutingMode::kFlooding)));

TEST(LinkBatching, SnapshotConsistencyBypassesBatcherUnchanged) {
  ScenarioConfig sc;
  sc.engine = EngineKind::kLees;
  sc.snapshot_consistency = true;
  const ScenarioResult base = run_scenario(baseline_of(sc));
  ASSERT_FALSE(base.log.empty());
  ScenarioConfig batched = sc;
  batched.link_batch_size = 64;
  const ScenarioResult got = run_scenario(batched);
  EXPECT_EQ(got.log, base.log);
  // Snapshot-carrying publications never ride a batch: everything the
  // batcher saw went out as scalar sends at their entry broker, and only
  // snapshot-free hops (none here at the entry) could batch. Deliveries at
  // downstream brokers still carry the snapshot, so batches stay empty.
  EXPECT_EQ(got.counters.batch_messages, 0u);
}

TEST(LinkBatching, CoveringRoutingComposesWithLinkBatching) {
  ScenarioConfig sc;
  sc.engine = EngineKind::kLees;
  sc.routing = RoutingMode::kAdvertisement;
  sc.covering = true;
  const ScenarioResult base = run_scenario(baseline_of(sc));
  ASSERT_FALSE(base.log.empty());
  ScenarioConfig batched = sc;
  batched.link_batch_size = 64;
  const ScenarioResult got = run_scenario(batched);
  EXPECT_EQ(got.log, base.log);
}

TEST(LinkBatching, GroupedDeliveriesObservedOnTheWire) {
  ScenarioConfig sc;
  sc.link_batch_size = 64;
  const ScenarioResult got = run_scenario(sc);
  // Bursty instants must actually group client deliveries into
  // DeliveryBatchMsg envelopes, each carrying at least two publications.
  EXPECT_GT(got.delivery_batch_envelopes, 0u);
  EXPECT_GT(got.delivery_batch_events, 2 * got.delivery_batch_envelopes);
  EXPECT_GT(got.counters.batch_messages, 0u);
  EXPECT_LT(got.counters.messages(), got.counters.events);
  // Every flushed batch is one fill sample.
  EXPECT_EQ(got.counters.fill.count(), got.counters.batch_messages);
  // The burst chased by a variable update forced at least one barrier flush.
  EXPECT_GT(got.counters.barrier_flushes, 0u);
}

TEST(LinkBatching, PositiveDeadlineBoundedLatenessSameOrder) {
  ScenarioConfig sc;
  sc.engine = EngineKind::kLees;
  const ScenarioResult base = run_scenario(baseline_of(sc));
  ASSERT_FALSE(base.log.empty());

  ScenarioConfig delayed = sc;
  delayed.link_batch_size = 64;
  delayed.deadline = Duration::millis(2);
  const ScenarioResult got = run_scenario(delayed);

  // Same delivery sets, same per-client order (single publisher, tree
  // overlay: one path per (publisher, client) pair, and batching preserves
  // per-link FIFO).
  EXPECT_EQ(got.per_client, base.per_client);
  // Every delivery is no earlier than per-message, and late by at most one
  // deadline per overlay hop (broker chain + client link).
  const std::int64_t max_late =
      delayed.deadline.count_micros() * static_cast<std::int64_t>(base.broker_count + 1);
  for (const auto& [client, base_times] : base.times) {
    const auto it = got.times.find(client);
    ASSERT_NE(it, got.times.end()) << client;
    ASSERT_EQ(it->second.size(), base_times.size()) << client;
    for (std::size_t i = 0; i < base_times.size(); ++i) {
      EXPECT_GE(it->second[i], base_times[i]) << client << " #" << i;
      EXPECT_LE(it->second[i] - base_times[i], max_late) << client << " #" << i;
    }
  }
  // The point of waiting: strictly fewer envelopes than the same-instant
  // policy needs for this (mostly staggered) schedule, deadline flushes used.
  EXPECT_GT(got.counters.deadline_flushes, 0u);
  EXPECT_EQ(got.counters.events, base.counters.events);
}

TEST(LinkBatching, ZeroConfigResolvesFromEnvironmentDefault) {
  // link_batch_size = 0 resolves through EVPS_LINK_BATCH (default 1) at
  // broker construction; the resolved width is visible in config().
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.link_batch_size = 0;
  Broker& b = overlay.add_broker("b", cfg);
  EXPECT_GE(b.config().link_batch_size, 1u);
  EXPECT_LE(b.config().link_batch_size, kMaxBatchPublications);
}

}  // namespace
}  // namespace evps
