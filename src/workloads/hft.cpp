#include "workloads/hft.hpp"

#include <cmath>
#include <numbers>

namespace evps {
namespace {

std::string stock_symbol(std::size_t stock) {
  std::string s = std::to_string(stock);
  return "STK" + std::string(3 - std::min<std::size_t>(3, s.size()), '0') + s;
}

/// Deterministic availability toggle, substituting for the paper's
/// generated activability trace.
std::int64_t availability(std::size_t stock, SimTime t) {
  const double phase = static_cast<double>(stock % 97) * 0.37;
  return std::sin(0.05 * t.seconds() + phase) > -0.8 ? 1 : 0;
}

}  // namespace

HftExperiment::HftExperiment(const HftConfig& config)
    : cfg_(config), overlay_(sim_), rng_(config.seed) {
  if (cfg_.publishers != cfg_.markets * cfg_.edges_per_market) {
    throw std::invalid_argument("HFT setup expects one publisher per edge broker");
  }
  build_stocks();
}

void HftExperiment::build_stocks() {
  Rng rng = rng_.fork(0x57004);
  stocks_.reserve(cfg_.stocks);
  for (std::size_t s = 0; s < cfg_.stocks; ++s) {
    StockModel m;
    m.base = rng.uniform(10.0, 500.0);
    m.drift = rng.uniform(-0.05, 0.05);
    m.amplitude = rng.uniform(0.0, 0.5);
    m.omega = 2.0 * std::numbers::pi / rng.uniform(20.0, 120.0);
    m.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    stocks_.push_back(m);
  }
}

double HftExperiment::model_price(std::size_t stock, SimTime t) const {
  const StockModel& m = stocks_.at(stock);
  return m.base + m.drift * t.seconds() + m.amplitude * std::sin(m.omega * t.seconds() + m.phase);
}

void HftExperiment::build_topology() {
  BrokerConfig broker_cfg;
  broker_cfg.engine.kind = engine_kind_for(cfg_.system);
  broker_cfg.engine.matcher = MatcherKind::kCounting;
  broker_cfg.engine.default_mei = cfg_.mei;
  broker_cfg.engine.default_tt = cfg_.tt;
  broker_cfg.routing = cfg_.routing;
  broker_cfg.snapshot_consistency = cfg_.snapshot_consistency;
  broker_cfg.engine.matcher_threads = cfg_.matcher_threads;
  broker_cfg.link_batch_size = cfg_.link_batch_size;

  if (is_centralized(cfg_.system)) {
    edge_brokers_.assign(cfg_.publishers, &overlay_.add_broker("central", broker_cfg));
    return;
  }

  Broker& central = overlay_.add_broker("central", broker_cfg);
  for (std::size_t m = 0; m < cfg_.markets; ++m) {
    Broker& core = overlay_.add_broker("market" + std::to_string(m) + "_core", broker_cfg);
    overlay_.connect(core, central, cfg_.core_central_latency);
    for (std::size_t e = 0; e < cfg_.edges_per_market; ++e) {
      Broker& edge = overlay_.add_broker(
          "market" + std::to_string(m) + "_edge" + std::to_string(e), broker_cfg);
      overlay_.connect(edge, core, cfg_.edge_core_latency);
      edge_brokers_.push_back(&edge);
    }
  }
}

void HftExperiment::build_publishers() {
  const Duration link = is_centralized(cfg_.system) ? Duration::zero() : cfg_.client_latency;
  for (std::size_t p = 0; p < cfg_.publishers; ++p) {
    auto& client = overlay_.add_client("firmpub" + std::to_string(p));
    client.connect(*edge_brokers_[p % edge_brokers_.size()], link);
    publishers_.push_back(&client);

    if (cfg_.pub_rate <= 0) continue;  // traffic-only experiments skip the feed
    const Duration period = Duration::seconds(1.0 / cfg_.pub_rate);
    // The publisher cycles through its assigned stocks (stock % publishers).
    auto stocks = std::make_shared<std::vector<std::size_t>>();
    for (std::size_t s = p; s < cfg_.stocks; s += cfg_.publishers) stocks->push_back(s);
    if (stocks->empty()) continue;
    auto cursor = std::make_shared<std::size_t>(0);
    const Duration offset = Duration::millis(static_cast<std::int64_t>(p));
    sim_.every(SimTime::zero() + period + offset, period, cfg_.duration,
               [this, &client, stocks, cursor](SimTime now) {
                 const std::size_t s = (*stocks)[(*cursor)++ % stocks->size()];
                 Publication pub;
                 pub.set("symbol", stock_symbol(s));
                 pub.set("price", model_price(s, now));
                 pub.set("avail", availability(s, now));
                 client.publish(std::move(pub));
               });
  }
}

SimTime HftExperiment::epoch_start(const Firm& firm, SimTime t) const {
  const SimTime first = SimTime::zero() + firm.stagger;
  if (t < first) return first;
  const std::int64_t elapsed = (t - first).count_micros();
  const std::int64_t validity = cfg_.validity.count_micros();
  return first + Duration::micros((elapsed / validity) * validity);
}

double HftExperiment::intended_center(std::size_t client_index, std::size_t slot,
                                      SimTime t) const {
  const Firm& firm = firms_.at(client_index);
  const std::size_t stock = firm.slots.at(slot).stock;
  const SimTime epoch = epoch_start(firm, t);
  return model_price(stock, epoch) + stocks_[stock].drift * (t - epoch).count_seconds();
}

Subscription HftExperiment::make_evolving_subscription(const Firm& firm, std::size_t slot,
                                                       SimTime now) const {
  const std::size_t stock = firm.slots.at(slot).stock;
  const double c0 = model_price(stock, now);
  const double drift = stocks_[stock].drift;
  const double w = cfg_.band_half_width;
  // price in [c0 - w + drift*t, c0 + w + drift*t]
  const auto drift_term = Expr::mul(Expr::constant(drift), Expr::variable("t"));
  Subscription sub;
  sub.add(Predicate{"symbol", RelOp::kEq, Value{stock_symbol(stock)}});
  sub.add(Predicate{"price", RelOp::kGe, Expr::add(Expr::constant(c0 - w), drift_term)});
  sub.add(Predicate{"price", RelOp::kLe, Expr::add(Expr::constant(c0 + w), drift_term)});
  sub.set_mei(cfg_.mei);
  sub.set_tt(cfg_.tt);
  sub.set_validity(cfg_.validity);
  return sub;
}

Subscription HftExperiment::make_static_subscription(const Firm& firm, std::size_t slot,
                                                     SimTime now) const {
  const std::size_t firm_index = static_cast<std::size_t>(&firm - firms_.data());
  const std::size_t stock = firm.slots.at(slot).stock;
  const double center = intended_center(firm_index, slot, now);
  const double w = cfg_.band_half_width;
  Subscription sub;
  sub.add(Predicate{"symbol", RelOp::kEq, Value{stock_symbol(stock)}});
  sub.add(Predicate{"price", RelOp::kGe, Value{center - w}});
  sub.add(Predicate{"price", RelOp::kLe, Value{center + w}});
  return sub;
}

void HftExperiment::build_subscribers() {
  const Duration link = is_centralized(cfg_.system) ? Duration::zero() : cfg_.client_latency;
  firms_.reserve(cfg_.clients);
  for (std::size_t c = 0; c < cfg_.clients; ++c) {
    auto& client = overlay_.add_client("hft" + std::to_string(c));
    client.connect(*edge_brokers_[c % edge_brokers_.size()], link);

    Firm firm;
    firm.client = &client;
    firm.stagger = Duration::micros(static_cast<std::int64_t>(
        static_cast<double>(cfg_.validity.count_micros()) * static_cast<double>(c) /
        static_cast<double>(cfg_.clients)));
    Rng slot_rng = Rng(cfg_.seed).fork(1000 + c);
    firm.slots.resize(cfg_.stocks_per_client);
    for (auto& s : firm.slots) {
      s.stock = static_cast<std::size_t>(
          slot_rng.uniform_int(0, static_cast<std::int64_t>(cfg_.stocks) - 1));
    }
    firms_.push_back(std::move(firm));

    if (uses_evolving_subscriptions(cfg_.system)) {
      schedule_epoch_replacements(firms_.size() - 1);
    } else {
      schedule_change_ticks(firms_.size() - 1);
    }
  }
}

void HftExperiment::schedule_epoch_replacements(std::size_t firm_index) {
  Firm& firm = firms_[firm_index];
  sim_.every(SimTime::zero() + firm.stagger, cfg_.validity, cfg_.duration,
             [this, firm_index](SimTime now) {
               Firm& firm = firms_[firm_index];
               for (std::size_t k = 0; k < firm.slots.size(); ++k) {
                 const SubscriptionId fresh =
                     firm.client->subscribe(make_evolving_subscription(firm, k, now));
                 if (firm.slots[k].current_sub.valid()) {
                   firm.client->unsubscribe(firm.slots[k].current_sub);
                 }
                 firm.slots[k].current_sub = fresh;
               }
             });
}

void HftExperiment::schedule_change_ticks(std::size_t firm_index) {
  Firm& firm = firms_[firm_index];
  const Duration tick = Duration::seconds(60.0 / cfg_.change_rate_per_min);
  const SimTime first = SimTime::zero() + firm.stagger;

  // Initial static subscriptions.
  sim_.at(first, [this, firm_index, first]() {
    Firm& firm = firms_[firm_index];
    for (std::size_t k = 0; k < firm.slots.size(); ++k) {
      firm.slots[k].current_sub = firm.client->subscribe(make_static_subscription(firm, k, first));
    }
  });

  sim_.every(first + tick, tick, cfg_.duration, [this, firm_index](SimTime now) {
    Firm& firm = firms_[firm_index];
    for (std::size_t k = 0; k < firm.slots.size(); ++k) {
      if (!firm.slots[k].current_sub.valid()) continue;
      if (cfg_.system == SystemKind::kParametric) {
        const std::size_t fi = firm_index;
        const double center = intended_center(fi, k, now);
        const double w = cfg_.band_half_width;
        firm.client->update_subscription(
            firm.slots[k].current_sub,
            {std::nullopt, Value{center - w}, Value{center + w}});
      } else {
        // Resubscription baseline: unsubscribe, wait for the unsubscription
        // to settle, then install the replacement.
        firm.client->unsubscribe(firm.slots[k].current_sub);
        firm.slots[k].current_sub = SubscriptionId::invalid();
        sim_.after(cfg_.resub_settle, [this, firm_index, k]() {
          Firm& firm = firms_[firm_index];
          firm.slots[k].current_sub =
              firm.client->subscribe(make_static_subscription(firm, k, sim_.now()));
        });
      }
    }
  });
}

void HftExperiment::run() {
  if (ran_) throw std::logic_error("HftExperiment::run may only be called once");
  ran_ = true;
  build_topology();
  build_publishers();
  build_subscribers();
  traffic_probe_ = std::make_unique<TrafficProbe>(overlay_, cfg_.traffic_interval, cfg_.duration);
  sim_.run_until(cfg_.duration);
}

}  // namespace evps
