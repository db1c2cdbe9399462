// High-frequency trading workload (Section VI-B, Figures 6 and 7).
//
// Three simulated stock markets, each modelled with three edge brokers and a
// core broker; the cores connect to one central broker (13 brokers total).
// Nine brokerage-firm publishers (one per edge broker) publish price and
// availability quotes for 500 stocks; up to 90 HFT client firms, uniformly
// distributed across the markets, each track 10 stocks with narrow price
// bands that are constantly re-centred on the firm's price prediction.
//
// The intended interest of a (client, slot) pair is a *piecewise-linear band
// trajectory*: at the start of each validity epoch the band centre snaps to
// the current model price of the slot's stock and then drifts linearly at
// the stock's drift rate. Evolving subscriptions express one epoch exactly
// (centre = c0 + drift * t); the baselines approximate it by re-centring the
// band on every change tick (resubscription: unsubscribe + subscribe,
// parametric: one update message).
//
// Substitutions vs. the paper (see DESIGN.md): the S&P 500 feed and activity
// trace are replaced by a seeded deterministic price model
// (base + drift*t + seasonal sine) and a seeded availability toggle.
#pragma once

#include <memory>
#include <vector>

#include "broker/overlay.hpp"
#include "common/rng.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/traffic.hpp"
#include "workloads/system_kind.hpp"

namespace evps {

struct HftConfig {
  SystemKind system = SystemKind::kLees;
  std::uint64_t seed = 42;

  std::size_t markets = 3;
  std::size_t edges_per_market = 3;
  std::size_t publishers = 9;
  std::size_t clients = 90;
  std::size_t stocks = 500;
  std::size_t stocks_per_client = 10;

  /// Publications per second per publisher (paper: 1000; scaled down by
  /// default so the accuracy experiments run quickly — the traffic metric is
  /// independent of the publication rate).
  double pub_rate = 50.0;

  /// Interest changes per minute per subscription (Figure 6: 30 and 12).
  double change_rate_per_min = 30.0;

  /// Evolving subscription lifetime; each is replaced (new sub + unsub of
  /// the old one) at this period. Paper: 60 s; Figure 6(c) uses 20 s.
  Duration validity = Duration::seconds(60.0);

  Duration mei = Duration::seconds(1.0);
  Duration tt = Duration::seconds(1.0);

  Duration client_latency = Duration::millis(2);
  Duration edge_core_latency = Duration::millis(5);
  Duration core_central_latency = Duration::millis(5);

  /// Delay the resubscription baseline waits between the unsubscribe and the
  /// new subscribe (the "slow unsubscription and subscription process
  /// involving several rounds of messaging", Section VI-B).
  Duration resub_settle = Duration::millis(10);

  /// Half-width of the tracked price band, in dollars.
  double band_half_width = 0.25;

  SimTime duration = SimTime::from_seconds(300.0);
  Duration traffic_interval = Duration::minutes(1.0);

  bool snapshot_consistency = false;

  // --- broker matrix knobs (sweep harness) ----------------------------------
  // Defaults reproduce the historical flooding, single-shard, unbatched
  // topology bit for bit; the sweep driver varies them to span the matrix.
  RoutingMode routing = RoutingMode::kFlooding;
  /// Matcher shards/threads inside each broker engine (0 = single shard).
  std::size_t matcher_threads = 0;
  /// Per-link outgoing batch size (0 = EVPS_LINK_BATCH env, default 1).
  std::size_t link_batch_size = 0;
};

class HftExperiment {
 public:
  explicit HftExperiment(const HftConfig& config);

  /// Build the deployment and run the full workload to config.duration.
  void run();

  [[nodiscard]] const TrafficProbe& traffic() const { return *traffic_probe_; }
  [[nodiscard]] DeliveryLog delivery_log() const { return collect_delivery_log(overlay_); }
  [[nodiscard]] Overlay& overlay() noexcept { return overlay_; }
  [[nodiscard]] const HftConfig& config() const noexcept { return cfg_; }

  /// Aggregate engine processing time across brokers (seconds).
  [[nodiscard]] double engine_seconds() const noexcept { return overlay_.total_engine_seconds(); }

  /// Deterministic model price of `stock` at time `t` (same in every run
  /// with the same seed).
  [[nodiscard]] double model_price(std::size_t stock, SimTime t) const;

  /// Intended band centre for a subscription slot at time `t` (the
  /// piecewise-linear trajectory every system approximates).
  [[nodiscard]] double intended_center(std::size_t client_index, std::size_t slot,
                                       SimTime t) const;

 private:
  struct StockModel {
    double base;
    double drift;      // $/s
    double amplitude;  // seasonal component
    double omega;
    double phase;
  };

  struct Slot {
    std::size_t stock = 0;
    SubscriptionId current_sub{};
  };

  struct Firm {
    PubSubClient* client = nullptr;
    std::vector<Slot> slots;
    Duration stagger = Duration::zero();
  };

  void build_stocks();
  void build_topology();
  void build_publishers();
  void build_subscribers();

  [[nodiscard]] SimTime epoch_start(const Firm& firm, SimTime t) const;

  /// Subscription predicates for `slot` with band centred per `system`.
  [[nodiscard]] Subscription make_evolving_subscription(const Firm& firm, std::size_t slot,
                                                        SimTime now) const;
  [[nodiscard]] Subscription make_static_subscription(const Firm& firm, std::size_t slot,
                                                      SimTime now) const;

  void schedule_epoch_replacements(std::size_t firm_index);
  void schedule_change_ticks(std::size_t firm_index);

  HftConfig cfg_;
  Simulator sim_;
  Overlay overlay_;
  Rng rng_;

  std::vector<StockModel> stocks_;
  std::vector<Broker*> edge_brokers_;  // one entry per edge, round-robin targets
  std::vector<PubSubClient*> publishers_;
  std::vector<Firm> firms_;
  std::unique_ptr<TrafficProbe> traffic_probe_;
  bool ran_ = false;
};

}  // namespace evps
