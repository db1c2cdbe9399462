#include "workloads/game.hpp"

#include <cmath>
#include <numbers>

namespace evps {

Subscription moving_aoi(double x, double y, double dx, double dy, double half_w, double half_h,
                        bool visibility) {
  // Bound form: x in [x + dx*t -/+ half_w * v], y analogous. Without the
  // visibility variable the v factor is dropped (v == 1).
  const auto bound = [&](double origin, double velocity, double half_extent, bool lower) {
    ExprPtr moving = Expr::add(Expr::constant(origin),
                               Expr::mul(Expr::constant(velocity), Expr::variable("t")));
    ExprPtr extent = visibility ? Expr::mul(Expr::constant(half_extent), Expr::variable("v"))
                                : Expr::constant(half_extent);
    return lower ? Expr::sub(std::move(moving), std::move(extent))
                 : Expr::add(std::move(moving), std::move(extent));
  };
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, bound(x, dx, half_w, true)});
  sub.add(Predicate{"x", RelOp::kLe, bound(x, dx, half_w, false)});
  sub.add(Predicate{"y", RelOp::kGe, bound(y, dy, half_h, true)});
  sub.add(Predicate{"y", RelOp::kLe, bound(y, dy, half_h, false)});
  return sub;
}

GameExperiment::GameExperiment(const GameConfig& config)
    : cfg_(config), overlay_(sim_), rng_(config.seed) {
  if (cfg_.clients == 0 || cfg_.characters == 0) {
    throw std::invalid_argument("game needs at least one client and one character");
  }
}

double GameExperiment::visibility_at(SimTime t) const {
  const double total = cfg_.duration.seconds();
  const double tail = std::min(20.0, total / 4.0);
  const double s = std::min(std::max(t.seconds(), 0.0), total);
  if (s >= total - tail) return 0.5;  // final drop
  const double half = total / 2.0;
  if (s <= half) {
    return 1.0 - 0.5 * (s / half);  // 100% -> 50%
  }
  const double recover_span = (total - tail) - half;
  if (recover_span <= 0) return 0.5;
  return 0.5 + 0.5 * ((s - half) / recover_span);  // 50% -> 100%
}

std::pair<double, double> GameExperiment::character_position(std::size_t i, SimTime t) const {
  const Character& ch = characters_.at(i);
  const double dt = (t - ch.epoch).count_seconds();
  return {ch.x + ch.dx * dt, ch.y + ch.dy * dt};
}

void GameExperiment::pick_direction(Character& ch) {
  // Choose a direction whose epoch-end position stays inside the world.
  const double horizon = cfg_.move_epoch.count_seconds();
  for (int attempt = 0; attempt < 32; ++attempt) {
    const double angle = ch.rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double dx = std::cos(angle) * ch.speed;
    const double dy = std::sin(angle) * ch.speed;
    const double ex = ch.x + dx * horizon;
    const double ey = ch.y + dy * horizon;
    if (std::abs(ex) < cfg_.world_half && std::abs(ey) < cfg_.world_half) {
      ch.dx = dx;
      ch.dy = dy;
      return;
    }
  }
  // Pathological corner: head straight back to the origin.
  const double norm = std::hypot(ch.x, ch.y);
  ch.dx = norm > 0 ? -ch.x / norm * ch.speed : ch.speed;
  ch.dy = norm > 0 ? -ch.y / norm * ch.speed : 0.0;
}

Subscription GameExperiment::make_evolving_subscription(const Character& ch,
                                                        SimTime /*now*/) const {
  Subscription sub = moving_aoi(ch.x, ch.y, ch.dx, ch.dy, cfg_.half_width, cfg_.half_height,
                                cfg_.use_visibility);
  sub.set_mei(cfg_.mei);
  sub.set_tt(cfg_.tt);
  sub.set_validity(cfg_.move_epoch);
  return sub;
}

Subscription GameExperiment::make_static_subscription(const Character& ch, SimTime now,
                                                      double visibility) const {
  const auto [x, y] = character_position(static_cast<std::size_t>(&ch - characters_.data()), now);
  const double v = cfg_.use_visibility ? visibility : 1.0;
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, Value{x - cfg_.half_width * v}});
  sub.add(Predicate{"x", RelOp::kLe, Value{x + cfg_.half_width * v}});
  sub.add(Predicate{"y", RelOp::kGe, Value{y - cfg_.half_height * v}});
  sub.add(Predicate{"y", RelOp::kLe, Value{y + cfg_.half_height * v}});
  return sub;
}

void GameExperiment::start_epoch(std::size_t char_index, SimTime now) {
  Character& ch = characters_[char_index];
  // Advance to the current position, then choose a new direction.
  const auto [x, y] = character_position(char_index, now);
  ch.x = x;
  ch.y = y;
  ch.epoch = now;
  pick_direction(ch);

  Owner& owner = owners_[ch.owner];
  if (uses_evolving_subscriptions(cfg_.system)) {
    if (ch.evolving) {
      const SubscriptionId fresh = owner.client->subscribe(make_evolving_subscription(ch, now));
      if (ch.current_sub.valid()) owner.client->unsubscribe(ch.current_sub);
      ch.current_sub = fresh;
    } else if (!ch.current_sub.valid()) {
      // Static characters subscribe once and keep their subscription.
      ch.current_sub = owner.client->subscribe(make_static_subscription(ch, now, 1.0));
    }
  } else if (!ch.current_sub.valid()) {
    // Baseline systems install here; subsequent tracking happens on the
    // resubscription/update ticks.
    ch.current_sub =
        owner.client->subscribe(make_static_subscription(ch, now, owner.known_visibility));
  }
}

void GameExperiment::build() {
  BrokerConfig broker_cfg;
  broker_cfg.engine.kind = engine_kind_for(cfg_.system);
  broker_cfg.engine.matcher = cfg_.matcher;
  broker_cfg.engine.default_mei = cfg_.mei;
  broker_cfg.engine.default_tt = cfg_.tt;
  broker_cfg.engine.matcher_threads = cfg_.matcher_threads;
  broker_cfg.link_batch_size = cfg_.link_batch_size;
  server_ = &overlay_.add_broker("gameserver", broker_cfg);

  // The event feed is generated by the game server itself: zero latency so
  // the publication entry instant is identical in every system variant.
  event_source_ = &overlay_.add_client("gameevents");
  event_source_->connect(*server_, Duration::zero());

  const Duration link = is_centralized(cfg_.system) ? Duration::zero() : cfg_.client_latency;
  owners_.resize(cfg_.clients);
  for (std::size_t c = 0; c < cfg_.clients; ++c) {
    auto& client = overlay_.add_client("player" + std::to_string(c));
    client.connect(*server_, link);
    owners_[c].client = &client;

    const std::size_t owner_index = c;
    client.on_delivery = [this, owner_index](const Publication& pub, SimTime) {
      if (const Value* v = pub.get("weather")) {
        if (const auto value = v->numeric()) owners_[owner_index].known_visibility = *value;
      }
      if (pub.has("x")) ++event_deliveries_;
    };
    if (cfg_.use_visibility && !uses_evolving_subscriptions(cfg_.system)) {
      // Baseline clients must be told the visibility explicitly.
      Subscription weather;
      weather.add(Predicate{"weather", RelOp::kGe, Value{0.0}});
      client.subscribe(std::move(weather));
    }
  }

  characters_.resize(cfg_.characters);
  for (std::size_t i = 0; i < cfg_.characters; ++i) {
    Character& ch = characters_[i];
    ch.owner = i % cfg_.clients;
    ch.rng = rng_.fork(100 + i);
    ch.speed = ch.rng.uniform(cfg_.speed_min, cfg_.speed_max);
    ch.x = ch.rng.uniform(-cfg_.world_half * 0.8, cfg_.world_half * 0.8);
    ch.y = ch.rng.uniform(-cfg_.world_half * 0.8, cfg_.world_half * 0.8);
    // Spread the evolving/static split evenly across any character count:
    // character i is evolving iff the cumulative quota crosses an integer.
    ch.evolving = std::floor(static_cast<double>(i + 1) * cfg_.evolving_fraction) >
                  std::floor(static_cast<double>(i) * cfg_.evolving_fraction);

    // Movement epochs: all characters re-plan every move_epoch, like the
    // paper's "all characters chose independently one direction ... for 10s".
    sim_.at(SimTime::zero(), [this, i]() { start_epoch(i, sim_.now()); });
    sim_.every(SimTime::zero() + cfg_.move_epoch, cfg_.move_epoch, cfg_.duration,
               [this, i](SimTime now) { start_epoch(i, now); });
  }

  // Baseline tracking ticks.
  if (!uses_evolving_subscriptions(cfg_.system)) {
    sim_.every(SimTime::zero() + cfg_.resub_interval, cfg_.resub_interval, cfg_.duration,
               [this](SimTime now) {
                 for (std::size_t i = 0; i < characters_.size(); ++i) {
                   Character& ch = characters_[i];
                   if (!ch.current_sub.valid()) continue;
                   Owner& owner = owners_[ch.owner];
                   if (cfg_.system == SystemKind::kParametric) {
                     const auto [x, y] = character_position(i, now);
                     const double v =
                         cfg_.use_visibility ? owner.known_visibility : 1.0;
                     owner.client->update_subscription(
                         ch.current_sub,
                         {Value{x - cfg_.half_width * v}, Value{x + cfg_.half_width * v},
                          Value{y - cfg_.half_height * v}, Value{y + cfg_.half_height * v}});
                   } else {
                     owner.client->unsubscribe(ch.current_sub);
                     ch.current_sub = owner.client->subscribe(
                         make_static_subscription(ch, now, owner.known_visibility));
                   }
                 }
               });
  }

  schedule_publications();
  if (cfg_.use_visibility) schedule_visibility();
  schedule_delivery_sampler();
}

void GameExperiment::schedule_publications() {
  if (cfg_.pub_rate <= 0) return;
  const Duration period = Duration::seconds(1.0 / cfg_.pub_rate);
  auto pub_rng = std::make_shared<Rng>(rng_.fork(0xeef));
  sim_.every(SimTime::zero() + period, period, cfg_.duration, [this, pub_rng](SimTime now) {
    double x = 0, y = 0;
    if (pub_rng->bernoulli(cfg_.hotspot_fraction)) {
      const auto idx = static_cast<std::size_t>(
          pub_rng->uniform_int(0, static_cast<std::int64_t>(characters_.size()) - 1));
      const auto [cx, cy] = character_position(idx, now);
      x = cx + pub_rng->uniform(-1.0, 1.0);
      y = cy + pub_rng->uniform(-1.0, 1.0);
    } else {
      x = pub_rng->uniform(-cfg_.world_half, cfg_.world_half);
      y = pub_rng->uniform(-cfg_.world_half, cfg_.world_half);
    }
    Publication pub;
    pub.set("x", x);
    pub.set("y", y);
    pub.set("action", pub_rng->bernoulli(0.5) ? "move" : "pickup");
    event_source_->publish(std::move(pub));
  });
}

void GameExperiment::schedule_visibility() {
  sim_.every(SimTime::zero(), cfg_.visibility_step, cfg_.duration, [this](SimTime now) {
    const double v = visibility_at(now);
    server_->set_variable("v", v);
    // Weather notifications to clients, except during the blackout tail.
    if (now + cfg_.blackout_tail < cfg_.duration) {
      Publication weather;
      weather.set("weather", v);
      event_source_->publish(std::move(weather));
    }
  });
}

void GameExperiment::schedule_delivery_sampler() {
  const Duration second = Duration::seconds(1.0);
  sim_.every(SimTime::zero() + second, second, cfg_.duration + Duration::micros(1),
             [this](SimTime) {
               deliveries_per_second_.push_back(event_deliveries_ - last_delivery_total_);
               last_delivery_total_ = event_deliveries_;
             });
}

void GameExperiment::run() {
  if (ran_) throw std::logic_error("GameExperiment::run may only be called once");
  ran_ = true;
  // Seed the visibility variable so evolving subscriptions can evaluate `v`
  // from the very first publication.
  build();
  if (cfg_.use_visibility) server_->set_variable_local("v", 1.0);
  sim_.run_until(cfg_.duration);
}

}  // namespace evps
