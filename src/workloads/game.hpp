// Location-based MMOG workload (Sections VI-C and VI-D, Figures 8-10).
//
// A single game server with an embedded broker hosts up to thousands of
// characters owned by up to 100 client machines. Every character subscribes
// to a rectangular area of interest centred on its position; all characters
// independently pick a movement direction every epoch (10 s) and move at
// constant speed, so the interest rectangle slides linearly — exactly the
// evolving subscription pattern of Figure 1. Each evolving subscription is
// replaced at the epoch boundary with a fresh one carrying the new velocity.
//
// The in-game visibility variable `v` (0..1) scales the area of interest;
// the server sets it directly on its embedded broker. For the non-evolving
// baseline (Section VI-D), the server additionally publishes weather
// notifications that clients subscribe to, and clients resubscribe both on
// movement ticks and on visibility changes — until the final blackout window
// when weather notifications stop and the baseline goes stale.
//
// Substitution vs. the paper (see DESIGN.md): the Mammoth game trace is
// replaced by this seeded motion model, which is the motion model the paper
// itself describes; game-event publications are generated at the positions
// of randomly chosen characters plus uniform background noise.
#pragma once

#include <memory>
#include <vector>

#include "broker/overlay.hpp"
#include "common/rng.hpp"
#include "metrics/accuracy.hpp"
#include "workloads/system_kind.hpp"

namespace evps {

struct GameConfig {
  SystemKind system = SystemKind::kClees;
  std::uint64_t seed = 7;

  std::size_t characters = 500;
  /// Client machines; characters are distributed round-robin (Figure 10(b)
  /// varies this to change the subscription-to-client ratio).
  std::size_t clients = 100;

  double world_half = 100.0;  // world is [-world_half, world_half]^2
  double speed_min = 0.5;     // units/s
  double speed_max = 3.0;
  double half_width = 3.0;   // AoI half extents (paper: 6x4 rectangle)
  double half_height = 2.0;

  Duration move_epoch = Duration::seconds(10.0);  // direction + sub replacement
  Duration mei = Duration::seconds(1.0);
  Duration tt = Duration::seconds(1.0);

  /// Standard-matcher implementation used by the broker engine.
  MatcherKind matcher = MatcherKind::kCounting;

  // --- broker matrix knobs (sweep harness) ----------------------------------
  // Defaults reproduce the historical single-shard, unbatched behaviour
  // bit for bit; the sweep driver varies them to span the capacity matrix.
  /// Matcher shards/threads inside the game-server engine (0 = single shard).
  std::size_t matcher_threads = 0;
  /// Per-link outgoing batch size (0 = EVPS_LINK_BATCH env, default 1).
  std::size_t link_batch_size = 0;

  /// Game-event publications per second.
  double pub_rate = 200.0;
  /// Fraction of events at character positions (rest uniform background).
  double hotspot_fraction = 0.7;

  /// Fraction of characters using evolving subscriptions; the rest install
  /// one static subscription at start (Figure 8(c): 0.5).
  double evolving_fraction = 1.0;

  Duration client_latency = Duration::millis(2);

  /// Resubscription cadence of baseline (non-evolving) characters.
  Duration resub_interval = Duration::seconds(1.0);

  // --- visibility experiment (Figure 10(c)) ---------------------------------
  bool use_visibility = false;
  Duration visibility_step = Duration::seconds(3.0);
  /// No weather notifications to clients during the last part of the run.
  Duration blackout_tail = Duration::seconds(30.0);

  SimTime duration = SimTime::from_seconds(60.0);
};

/// Figure 1's moving area of interest: the rectangle centred on
/// (x + dx·t, y + dy·t) with half extents `half_w` × `half_h`, scaled by the
/// visibility variable `v` when `visibility` is set. Predicates only; the
/// caller sets id, epoch, MEI, TT and validity.
[[nodiscard]] Subscription moving_aoi(double x, double y, double dx, double dy, double half_w,
                                      double half_h, bool visibility);

class GameExperiment {
 public:
  explicit GameExperiment(const GameConfig& config);

  void run();

  [[nodiscard]] Overlay& overlay() noexcept { return overlay_; }
  [[nodiscard]] const GameConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Broker& server() { return *server_; }

  /// Engine cost accounting of the (single) game broker.
  [[nodiscard]] const EngineCosts& engine_costs() const { return server_->engine().costs(); }

  [[nodiscard]] DeliveryLog delivery_log() const { return collect_delivery_log(overlay_); }

  /// Game-event deliveries per sampling second (Figure 10(c) series).
  [[nodiscard]] const std::vector<std::uint64_t>& deliveries_per_second() const noexcept {
    return deliveries_per_second_;
  }
  /// Subscription-related messages the broker received.
  [[nodiscard]] std::uint64_t subscription_msgs() const noexcept {
    return server_->stats().subscription_msgs;
  }

  /// Scheduled visibility value at time `t` (Figure 10(c) schedule).
  [[nodiscard]] double visibility_at(SimTime t) const;

  /// Exact position of character `i` at time `t` (piecewise linear).
  [[nodiscard]] std::pair<double, double> character_position(std::size_t i, SimTime t) const;

 private:
  struct Character {
    std::size_t owner = 0;  // index into owners_
    bool evolving = true;
    double x = 0, y = 0;    // position at epoch start
    double dx = 0, dy = 0;  // velocity (units/s)
    double speed = 1.0;
    SimTime epoch = SimTime::zero();
    SubscriptionId current_sub{};
    Rng rng{0};
  };

  struct Owner {
    PubSubClient* client = nullptr;
    double known_visibility = 1.0;  // last weather value received (baseline)
  };

  void build();
  void pick_direction(Character& ch);
  void start_epoch(std::size_t char_index, SimTime now);
  [[nodiscard]] Subscription make_evolving_subscription(const Character& ch, SimTime now) const;
  [[nodiscard]] Subscription make_static_subscription(const Character& ch, SimTime now,
                                                      double visibility) const;
  void schedule_publications();
  void schedule_visibility();
  void schedule_delivery_sampler();

  GameConfig cfg_;
  Simulator sim_;
  Overlay overlay_;
  Rng rng_;

  Broker* server_ = nullptr;
  PubSubClient* event_source_ = nullptr;
  std::vector<Owner> owners_;
  std::vector<Character> characters_;
  std::vector<std::uint64_t> deliveries_per_second_;
  std::uint64_t event_deliveries_ = 0;
  std::uint64_t last_delivery_total_ = 0;
  bool ran_ = false;
};

}  // namespace evps
