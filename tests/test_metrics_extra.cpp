// Delivery latency metric (and its NaN guard), the broker load-monitor
// variable (Section III-C overload self-protection) and the shard/batch
// counters.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "broker/overlay.hpp"
#include "message/codec.hpp"
#include "metrics/latency.hpp"
#include "metrics/shard_counters.hpp"
#include "stats/online_stats.hpp"

namespace evps {
namespace {

SimTime sec(double s) { return SimTime::from_seconds(s); }

TEST(Latency, SingleHopLatencyIsSubscriberLink) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  Broker& broker = overlay.add_broker("b", cfg);
  auto& sub = overlay.add_client("sub");
  auto& feed = overlay.add_client("feed");
  sub.connect(broker, Duration::millis(7));
  feed.connect(broker, Duration::millis(2));
  sub.subscribe("x >= 0");
  sim.run_until(sec(0.1));
  feed.publish("x = 1");
  feed.publish("x = 2");
  sim.run_until(sec(1));

  const OnlineStats latency = collect_delivery_latency(overlay);
  ASSERT_EQ(latency.count(), 2u);
  // Entry time is stamped at the broker; only the subscriber link remains.
  EXPECT_NEAR(latency.mean(), 0.007, 1e-9);
  EXPECT_NEAR(latency.min(), 0.007, 1e-9);
  EXPECT_NEAR(latency.max(), 0.007, 1e-9);
}

TEST(Latency, MultiHopAccumulates) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  auto brokers = overlay.build_line(3, cfg, Duration::millis(10));
  auto& sub = overlay.add_client("sub");
  auto& feed = overlay.add_client("feed");
  sub.connect(*brokers[0], Duration::millis(1));
  feed.connect(*brokers[2], Duration::millis(1));
  sub.subscribe("x >= 0");
  sim.run_until(sec(0.5));
  feed.publish("x = 1");
  sim.run_until(sec(1));

  const OnlineStats latency = collect_delivery_latency(overlay);
  ASSERT_EQ(latency.count(), 1u);
  // Two inter-broker hops (10 ms each) plus the subscriber link (1 ms).
  EXPECT_NEAR(latency.mean(), 0.021, 1e-9);
}

TEST(Latency, PerClientBreakdown) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  Broker& broker = overlay.add_broker("b", cfg);
  auto& near = overlay.add_client("near");
  auto& far = overlay.add_client("far");
  auto& feed = overlay.add_client("feed");
  near.connect(broker, Duration::millis(1));
  far.connect(broker, Duration::millis(20));
  feed.connect(broker, Duration::zero());
  near.subscribe("x >= 0");
  far.subscribe("x >= 0");
  sim.run_until(sec(0.5));
  feed.publish("x = 1");
  sim.run_until(sec(1));

  const auto per_client = collect_delivery_latency_per_client(overlay);
  ASSERT_EQ(per_client.size(), 2u);
  EXPECT_NEAR(per_client.at(near.id()).mean(), 0.001, 1e-9);
  EXPECT_NEAR(per_client.at(far.id()).mean(), 0.020, 1e-9);
  EXPECT_FALSE(per_client.contains(feed.id()));
}

TEST(Latency, EmptyOverlay) {
  Simulator sim;
  Overlay overlay{sim};
  EXPECT_EQ(collect_delivery_latency(overlay).count(), 0u);
  EXPECT_TRUE(collect_delivery_latency_per_client(overlay).empty());
}

struct LoadMonitorTest : ::testing::Test {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  Broker* broker = nullptr;
  PubSubClient* sub = nullptr;
  PubSubClient* feed = nullptr;

  void SetUp() override {
    cfg.engine.kind = EngineKind::kLees;
    broker = &overlay.add_broker("b", cfg);
    sub = &overlay.add_client("sub");
    feed = &overlay.add_client("feed");
    sub->connect(*broker, Duration::millis(1));
    feed->connect(*broker, Duration::millis(1));
  }
};

TEST_F(LoadMonitorTest, TracksOutgoingRate) {
  broker->enable_load_monitor("outRate", Duration::seconds(1.0), sec(10));
  sub->subscribe("x >= 0");
  // 50 matching pubs/s for 3 seconds.
  sim.every(sec(0.5), Duration::millis(20), sec(3.5), [&](SimTime) { feed->publish("x = 1"); });
  sim.run_until(sec(2.5));
  const auto mid = broker->variables().get("outRate");
  ASSERT_TRUE(mid.has_value());
  EXPECT_NEAR(*mid, 50.0, 10.0);
  sim.run_until(sec(6));
  EXPECT_NEAR(*broker->variables().get("outRate"), 0.0, 1.0);  // quiet again
}

TEST_F(LoadMonitorTest, SelfThrottlingSubscription) {
  // Section III-C: match everything up to maxDist when idle, nothing at
  // full load: distance < maxDist * (1 - outRate / maxRate).
  broker->enable_load_monitor("outRate", Duration::seconds(1.0), sec(30));
  sub->subscribe("distance < 100 * (1 - outRate / 100)");
  sim.run_until(sec(0.1));

  // Idle: outRate = 0 -> threshold 100.
  feed->publish("distance = 50");
  sim.run_until(sec(0.9));
  EXPECT_EQ(sub->deliveries().size(), 1u);

  // Saturate: ~200 deliveries/s pushes outRate beyond 100 -> threshold < 0,
  // so the subscription throttles itself during the flood windows.
  sim.every(sec(1), Duration::millis(5), sec(4), [&](SimTime) {
    feed->publish("distance = 1");
  });
  sim.run_until(sec(5));  // flood over, trailing deliveries settled
  const std::size_t during_load = sub->deliveries().size();
  // The flood produced ~600 publications; self-throttling must have dropped
  // a large share of them (every window after the monitor saw the spike).
  EXPECT_LT(during_load, 450u);
  EXPECT_GT(during_load, 50u);

  // Load has decayed: the probe publication is delivered again.
  sim.run_until(sec(5.2));
  feed->publish("distance = 50");
  sim.run_until(sec(6));
  EXPECT_EQ(sub->deliveries().size(), during_load + 1);
}

TEST(LoadMonitorLifetime, DestroyedBrokerCancelsItsMonitor) {
  // Regression: the monitor callback captures the broker by raw pointer; a
  // broker destroyed before `until` used to leave a dangling recurring
  // callback in the simulator queue.
  Simulator sim;
  Network net{sim};
  {
    Broker doomed{"doomed", net, BrokerConfig{}};
    doomed.enable_load_monitor("outRate", Duration::seconds(1.0), sec(100));
    sim.run_until(sec(2.5));  // fires while alive
    EXPECT_TRUE(doomed.variables().get("outRate").has_value());
  }
  // ~97 occurrences were still due; they must all be dead now.
  sim.run_all();
  EXPECT_EQ(sim.now(), sec(3));  // only the already-queued (no-op) event remained
}

TEST(ShardCounters, BatchAccountingAndReport) {
  BatchCounters counters;
  EXPECT_EQ(counters.mean_batch(), 0.0);
  counters.record(4, 10e-6);
  counters.record(8, 30e-6);
  EXPECT_EQ(counters.batches, 2u);
  EXPECT_EQ(counters.batched_publications, 12u);
  EXPECT_EQ(counters.max_batch, 8u);
  EXPECT_DOUBLE_EQ(counters.mean_batch(), 6.0);
  EXPECT_NEAR(counters.batch_seconds.mean(), 20e-6, 1e-12);

  const std::string report = format_shard_report({10, 30}, counters);
  EXPECT_NE(report.find("matcher shards: 2 (40 subscriptions)"), std::string::npos);
  EXPECT_NE(report.find("shard 0: 10 (25%)"), std::string::npos);
  EXPECT_NE(report.find("batches: 2 (12 publications, mean 6/batch, max 8)"), std::string::npos);
  EXPECT_NE(report.find("batch latency"), std::string::npos);

  counters.reset();
  EXPECT_EQ(counters.batches, 0u);
  EXPECT_EQ(counters.batch_seconds.count(), 0u);
}

/// Edge -> hub overlay: the edge batches its forwards `edge_link_batch` wide,
/// the hub runs four matcher shards. Two bursts (6 + 3 publications, each in
/// one virtual instant) reach one subscriber on the hub.
struct InboundBatchRun {
  std::vector<std::size_t> occupancy;
  BatchCounters batches;
  std::uint64_t batch_envelopes = 0;  ///< PublishBatchMsg received by the hub
  std::uint64_t batch_events = 0;     ///< publications those envelopes carried
  std::vector<std::string> deliveries;
};

InboundBatchRun run_inbound_batches(std::size_t edge_link_batch) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.link_batch_size = edge_link_batch;
  Broker& edge = overlay.add_broker("edge", cfg);
  cfg.engine.matcher_threads = 4;
  cfg.link_batch_size = 1;
  Broker& hub = overlay.add_broker("hub", cfg);
  Broker::connect(edge, hub, Duration::millis(5));
  auto& sub = overlay.add_client("sub");
  auto& feed = overlay.add_client("feed");
  sub.connect(hub, Duration::millis(1));
  feed.connect(edge, Duration::millis(1));

  InboundBatchRun r;
  overlay.network().add_tap([&](const Envelope& env, SimTime) {
    if (env.to == hub.node_id() && std::holds_alternative<PublishBatchMsg>(env.msg)) {
      ++r.batch_envelopes;
      r.batch_events += publications_carried(env.msg);
    }
  });
  sub.subscribe("x >= 0");
  sub.subscribe("y >= 0");
  sim.run_until(sec(0.1));
  for (int i = 0; i < 6; ++i) feed.publish("x = " + std::to_string(i));
  sim.run_until(sec(0.2));
  for (int i = 0; i < 3; ++i) feed.publish("y = " + std::to_string(i));
  sim.run_all();

  r.occupancy = hub.engine().shard_occupancy();
  r.batches = hub.engine().batch_counters();
  for (const auto& d : sub.deliveries()) {
    r.deliveries.push_back(std::to_string(d.when.micros()) + ":" + serialize(d.pub));
  }
  return r;
}

TEST(ShardCounters, EngineExposesOccupancyAndBatchCounters) {
  const InboundBatchRun base = run_inbound_batches(1);
  const InboundBatchRun got = run_inbound_batches(64);

  ASSERT_EQ(got.occupancy.size(), 4u);
  std::size_t total = 0;
  for (std::size_t s : got.occupancy) total += s;
  EXPECT_EQ(total, 2u);
  // One match_batch call per inbound link batch, carrying exactly its
  // publications; the per-message baseline never batches.
  EXPECT_EQ(got.batch_envelopes, 2u);
  EXPECT_EQ(got.batches.batches, got.batch_envelopes);
  EXPECT_EQ(got.batches.batched_publications, got.batch_events);
  EXPECT_EQ(got.batches.batched_publications, 9u);
  EXPECT_EQ(got.batches.max_batch, 6u);
  EXPECT_EQ(base.batch_envelopes, 0u);
  EXPECT_EQ(base.batches.batches, 0u);
  // Batched matching delivers exactly what the per-message path delivers.
  EXPECT_EQ(got.deliveries.size(), 9u);
  EXPECT_EQ(got.deliveries, base.deliveries);
}

TEST(LoadMonitorLifetime, ReturnedHandleCancelsEarly) {
  Simulator sim;
  Network net{sim};
  Broker broker{"b", net, BrokerConfig{}};
  auto handle = broker.enable_load_monitor("outRate", Duration::seconds(1.0), sec(100));
  EXPECT_TRUE(handle.active());
  sim.run_until(sec(1.5));
  handle.cancel();
  sim.run_all();
  EXPECT_LT(sim.now(), sec(3));  // no further occurrences were scheduled
}

TEST(Latency, AccumulatorSurvivesCorruptSample) {
  // The delivery-latency collector runs on OnlineStats; a poisoned sample
  // must not wipe the aggregate (the statistical-testing hardening contract).
  OnlineStats latency;
  latency.add(0.002);
  latency.add(std::numeric_limits<double>::quiet_NaN());
  latency.add(0.004);
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_EQ(latency.rejected(), 1u);
  EXPECT_DOUBLE_EQ(latency.mean(), 0.003);
}

}  // namespace
}  // namespace evps
