#include "workloads/star.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "message/codec.hpp"

namespace evps {

void run_star(const StarWorkload& w, const BrokerConfig& config, bool central, Overlay& overlay) {
  Simulator& sim = overlay.simulator();
  const std::vector<Broker*> brokers =
      central ? std::vector<Broker*>{&overlay.add_broker("central", config)}
              : overlay.build_star(w.edges, config, Duration::millis(5));
  Broker& core = *brokers[0];
  for (Broker* b : brokers) {
    for (const auto& v : w.vars) b->variables().declare_range(v.name, v.lo, v.hi);
  }
  for (const auto& v : w.vars) core.set_variable(v.name, v.value);

  const Duration link = central ? Duration::zero() : w.client_latency;
  const auto edge = [&](std::size_t e) -> Broker& { return central ? core : *brokers.at(1 + e); };
  std::vector<PubSubClient*> subscribers;
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    PubSubClient& c = overlay.add_client("zone" + std::to_string(i));
    c.connect(edge(w.subs[i].edge), link);
    subscribers.push_back(&c);
  }
  PubSubClient& publisher = overlay.add_client("events");
  publisher.connect(edge(0), link);

  const auto at = [&sim](double t, Simulator::Action fn) {
    sim.at(SimTime::from_seconds(t), std::move(fn));
  };
  std::vector<SubscriptionId> ids(w.subs.size());
  at(0.0, [&] { publisher.advertise(parse_subscription(w.adv).predicates()); });
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    at(1.0 + 0.01 * static_cast<double>(i),
       [&, i] { ids[i] = subscribers[i]->subscribe(w.subs[i].text); });
  }
  for (const auto& u : w.updates) at(u.t, [&] { core.set_variable(u.name, u.value); });
  for (const auto& p : w.pubs) at(p.t, [&] { publisher.publish(p.text); });
  for (const auto& u : w.unsubs) {
    at(u.t, [&] { subscribers.at(u.sub)->unsubscribe(ids.at(u.sub)); });
  }
  sim.run_until(SimTime::from_seconds(w.end));
}

namespace {

/// `var + d` / `var - |d|` with a parser-friendly sign.
std::string shifted(const std::string& var, double d) {
  return d < 0 ? var + " - " + format_number(-d) : var + " + " + format_number(d);
}

}  // namespace

StarWorkload make_rotated(std::uint64_t seed, std::size_t clusters) {
  StarWorkload w;
  w.adv = "u >= 0; u <= 2000; w >= -1000; w <= 1000";
  Rng rng{seed};
  constexpr double kDuration = 16.0;

  const auto zone = [&](const std::string& su, const std::string& sw, double ou, double ow,
                        double r) {
    w.subs.push_back({"[tt=0.5] u >= " + shifted(su, ou - r) + "; u <= " + shifted(su, ou + r) +
                          "; w >= " + shifted(sw, ow - r) + "; w <= " + shifted(sw, ow + r),
                      w.subs.size() % w.edges});
  };
  std::vector<double> cu(clusters), cw(clusters);
  for (std::size_t k = 0; k < clusters; ++k) {
    const std::string su = "cu" + std::to_string(k);
    const std::string sw = "cw" + std::to_string(k);
    cu[k] = rng.uniform(200.0, 800.0);
    cw[k] = rng.uniform(-400.0, 400.0);
    w.vars.push_back({su, 100.0, 900.0, cu[k]});
    w.vars.push_back({sw, -500.0, 500.0, cw[k]});

    zone(su, sw, 0.0, 0.0, 60.0);  // the coverer
    for (std::size_t z = 1; z < kRotatedZonesPerCluster; ++z) {
      const double r = rng.uniform(10.0, 50.0);
      const double ou = rng.uniform(-20.0, 20.0);
      const double ow = rng.uniform(-20.0, 20.0);
      zone(su, sw, ou, ow, r);
    }
  }

  // Centres drift every 2 s: a clamped random walk inside the declared range.
  for (double t = 6.0; t < kDuration; t += 2.0) {
    for (std::size_t k = 0; k < clusters; ++k) {
      cu[k] = std::clamp(cu[k] + rng.uniform(-40.0, 40.0), 100.0, 900.0);
      cw[k] = std::clamp(cw[k] + rng.uniform(-40.0, 40.0), -500.0, 500.0);
      w.updates.push_back({t, "cu" + std::to_string(k), cu[k]});
      w.updates.push_back({t, "cw" + std::to_string(k), cw[k]});
    }
  }

  // Publication feed: mostly hotspot events near a cluster's current centre,
  // the rest uniform background over the advertised space.
  for (double t = 4.0; t < kDuration; t += 0.1) {
    double u = 0, v = 0;
    if (rng.bernoulli(0.7)) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(clusters) - 1));
      u = cu[k] + rng.uniform(-70.0, 70.0);
      v = cw[k] + rng.uniform(-70.0, 70.0);
    } else {
      u = rng.uniform(0.0, 2000.0);
      v = rng.uniform(-1000.0, 1000.0);
    }
    w.pubs.push_back({t, "u = " + format_number(u) + "; w = " + format_number(v)});
  }
  return w;
}

}  // namespace evps
