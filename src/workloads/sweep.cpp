#include "workloads/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "message/codec.hpp"
#include "metrics/accuracy.hpp"
#include "stats/quantile_sketch.hpp"

namespace evps {

namespace {

/// FNV-1a 64-bit over a byte string.
void fnv1a(std::uint64_t& h, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

[[nodiscard]] std::size_t scaled(std::size_t base, double scale) {
  const double v = std::llround(static_cast<double>(base) * scale);
  return static_cast<std::size_t>(std::max(1.0, v));
}

/// Everything read out of one finished overlay before it is destroyed.
struct RunExtract {
  DeliveryLog log;
  QuantileSketch latency;
  OnlineStats latency_stats;
  std::uint64_t fingerprint = kFnvOffset;
  std::uint64_t overlay_msgs = 0;
  std::uint64_t subscription_msgs = 0;

  explicit RunExtract(double eps) : latency(eps) {}
};

RunExtract extract_run(Overlay& overlay, double eps) {
  RunExtract out{eps};
  out.log = collect_delivery_log(overlay);
  out.overlay_msgs = overlay.network().messages_sent();
  out.subscription_msgs = overlay.total_subscription_msgs();
  for (const auto& client : overlay.clients()) {
    for (const auto& d : client->deliveries()) {
      const double latency = (d.when - d.pub.entry_time()).count_seconds();
      out.latency.add(latency);
      out.latency_stats.add(latency);
      fnv1a(out.fingerprint, client->name());
      fnv1a(out.fingerprint, "@");
      fnv1a(out.fingerprint, std::to_string(d.when.micros()));
      fnv1a(out.fingerprint, ":");
      fnv1a(out.fingerprint, serialize(d.pub));
    }
  }
  return out;
}

ReplicaMetrics reduce(std::uint64_t seed, const RunExtract& actual, const DeliveryLog& truth) {
  ReplicaMetrics m;
  m.seed = seed;
  const AccuracyResult acc = compare_logs(truth, actual.log);
  m.deliveries = acc.actual_deliveries;
  m.truth_deliveries = acc.truth_deliveries;
  m.false_positives = acc.false_positives;
  m.false_negatives = acc.false_negatives;
  m.accuracy = acc.accuracy();
  m.latency_mean = actual.latency_stats.mean();
  m.latency_max = actual.latency_stats.max();
  m.latency_samples = actual.latency_stats.count();
  m.latency_rejected = actual.latency_stats.rejected();
  m.latency_p50 = actual.latency.quantile(0.50);
  m.latency_p90 = actual.latency.quantile(0.90);
  m.latency_p99 = actual.latency.quantile(0.99);
  m.overlay_msgs = actual.overlay_msgs;
  m.subscription_msgs = actual.subscription_msgs;
  m.msgs_per_delivery =
      m.deliveries == 0 ? 0.0
                        : static_cast<double>(m.overlay_msgs) / static_cast<double>(m.deliveries);
  m.fingerprint = actual.fingerprint;
  return m;
}

// --- game ------------------------------------------------------------------

GameConfig game_profile(const SweepOptions& o, std::uint64_t seed) {
  GameConfig cfg;
  cfg.system = o.system;
  cfg.seed = seed;
  cfg.matcher = o.matcher;
  cfg.matcher_threads = o.matcher_threads;
  cfg.link_batch_size = o.link_batch_size;
  // Scaled-down profile: hundreds of replicas must fit in minutes on one
  // core, and capacity planning needs replica *count*, not replica size.
  cfg.characters = scaled(48, o.scale);
  cfg.clients = scaled(12, o.scale);
  cfg.pub_rate = 40.0;
  cfg.move_epoch = Duration::seconds(4.0);
  cfg.duration = SimTime::from_seconds(20.0);
  return cfg;
}

ReplicaMetrics run_game_replica(const SweepOptions& o, std::uint64_t seed) {
  GameConfig cfg = game_profile(o, seed);
  GameExperiment actual(cfg);
  actual.run();
  const RunExtract ex = extract_run(actual.overlay(), o.latency_eps);

  GameConfig truth_cfg = cfg;
  truth_cfg.system = SystemKind::kGroundTruth;
  truth_cfg.matcher_threads = 0;
  truth_cfg.link_batch_size = 1;
  GameExperiment truth(truth_cfg);
  truth.run();
  return reduce(seed, ex, truth.delivery_log());
}

// --- hft -------------------------------------------------------------------

HftConfig hft_profile(const SweepOptions& o, std::uint64_t seed) {
  HftConfig cfg;
  cfg.system = o.system;
  cfg.seed = seed;
  cfg.routing = o.routing;
  cfg.matcher_threads = o.matcher_threads;
  cfg.link_batch_size = o.link_batch_size;
  cfg.clients = scaled(12, o.scale);
  cfg.stocks = scaled(40, o.scale);
  cfg.stocks_per_client = 4;
  cfg.pub_rate = 8.0;
  cfg.validity = Duration::seconds(10.0);
  cfg.duration = SimTime::from_seconds(30.0);
  cfg.traffic_interval = Duration::seconds(10.0);
  return cfg;
}

ReplicaMetrics run_hft_replica(const SweepOptions& o, std::uint64_t seed) {
  HftConfig cfg = hft_profile(o, seed);
  HftExperiment actual(cfg);
  actual.run();
  const RunExtract ex = extract_run(actual.overlay(), o.latency_eps);

  HftConfig truth_cfg = cfg;
  truth_cfg.system = SystemKind::kGroundTruth;
  truth_cfg.matcher_threads = 0;
  truth_cfg.link_batch_size = 1;
  HftExperiment truth(truth_cfg);
  truth.run();
  return reduce(seed, ex, truth.delivery_log());
}

// --- game_rotated ----------------------------------------------------------
//
// Rotated-coordinate moving zones (DESIGN.md §16, examples/scenarios/
// game_rotated.evps): interest zones in u = x + y, w = x - y coordinates
// around per-cluster moving centres (cu_k, cw_k). Exercises advertisement
// routing plus the covering/relational stack under evolving variables — the
// sweep dimension the plain game scenario (one broker) cannot reach. All
// directives (subscriptions, centre updates, publications) are generated
// once from the replica seed, then replayed into both the distributed star
// overlay and a centralised zero-latency twin; accuracy measures what the
// propagation delay of centre updates costs.

struct RotatedWorkload {
  struct Var {
    std::string name;
    double lo, hi, value;
  };
  struct Update {
    double t;
    std::string name;
    double value;
  };
  std::vector<Var> vars;
  std::string adv = "u >= 0; u <= 2000; w >= -1000; w <= 1000";
  std::vector<std::string> subs;
  std::vector<Update> updates;
  std::vector<std::pair<double, std::string>> pubs;  // (time, publication text)
};

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string shifted(const std::string& var, double d) {
  return d < 0 ? var + " - " + fmt_num(-d) : var + " + " + fmt_num(d);
}

RotatedWorkload make_rotated(std::uint64_t seed, double scale) {
  RotatedWorkload w;
  Rng rng{seed};
  const std::size_t clusters = scaled(3, scale);
  constexpr int kZonesPerCluster = 4;
  constexpr double kDuration = 16.0;

  std::vector<double> cu(clusters), cw(clusters);
  for (std::size_t k = 0; k < clusters; ++k) {
    const std::string su = "cu" + std::to_string(k);
    const std::string sw = "cw" + std::to_string(k);
    cu[k] = rng.uniform(200.0, 800.0);
    cw[k] = rng.uniform(-400.0, 400.0);
    w.vars.push_back({su, 100.0, 900.0, cu[k]});
    w.vars.push_back({sw, -500.0, 500.0, cw[k]});

    // Wide coverer first; narrower zones around the same centre, some
    // provably inside it (relational covering), some poking out.
    w.subs.push_back("[tt=0.5] u >= " + shifted(su, -60) + "; u <= " + shifted(su, 60) +
                     "; w >= " + shifted(sw, -60) + "; w <= " + shifted(sw, 60));
    for (int z = 1; z < kZonesPerCluster; ++z) {
      const double r = rng.uniform(10.0, 50.0);
      const double ou = rng.uniform(-20.0, 20.0);
      const double ow = rng.uniform(-20.0, 20.0);
      w.subs.push_back("[tt=0.5] u >= " + shifted(su, ou - r) + "; u <= " + shifted(su, ou + r) +
                       "; w >= " + shifted(sw, ow - r) + "; w <= " + shifted(sw, ow + r));
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
    w.pubs.emplace_back(t, "u = " + fmt_num(u) + "; w = " + fmt_num(v));
  }
  return w;
}

RunExtract run_rotated_overlay(const RotatedWorkload& w, const SweepOptions& o, bool truth) {
  Simulator sim;
  Overlay overlay{sim};

  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.engine.matcher = o.matcher;
  cfg.engine.matcher_threads = truth ? 0 : o.matcher_threads;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = !truth;
  cfg.relational_covering = !truth;
  cfg.link_batch_size = truth ? 1 : o.link_batch_size;

  constexpr std::size_t kEdges = 3;
  std::vector<Broker*> brokers;
  if (truth) {
    brokers.push_back(&overlay.add_broker("central", cfg));
  } else {
    brokers = overlay.build_star(kEdges, cfg, Duration::millis(5));
  }
  for (Broker* b : brokers) {
    for (const auto& v : w.vars) b->variables().declare_range(v.name, v.lo, v.hi);
  }
  for (const auto& v : w.vars) brokers[0]->set_variable(v.name, v.value);

  // Client creation order is identical in both overlays so ClientIds — and
  // therefore publication MessageIds — line up for the accuracy comparison.
  const Duration client_link = truth ? Duration::zero() : Duration::millis(2);
  std::vector<PubSubClient*> subscribers;
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    PubSubClient& c = overlay.add_client("zone" + std::to_string(i));
    Broker& attach = truth ? *brokers[0] : *brokers[1 + i % kEdges];
    c.connect(attach, client_link);
    subscribers.push_back(&c);
  }
  PubSubClient& publisher = overlay.add_client("events");
  publisher.connect(truth ? *brokers[0] : *brokers[1], client_link);

  sim.after(Duration::zero(), [&] { publisher.advertise(parse_subscription(w.adv).predicates()); });
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    sim.after(Duration::seconds(1.0 + 0.01 * static_cast<double>(i)),
              [&, i] { subscribers[i]->subscribe(w.subs[i]); });
  }
  for (const auto& u : w.updates) {
    sim.at(SimTime::from_seconds(u.t), [&] { brokers[0]->set_variable(u.name, u.value); });
  }
  for (const auto& [t, text] : w.pubs) {
    sim.at(SimTime::from_seconds(t), [&, &text = text] { publisher.publish(text); });
  }
  sim.run_until(SimTime::from_seconds(20.0));
  return extract_run(overlay, o.latency_eps);
}

ReplicaMetrics run_rotated_replica(const SweepOptions& o, std::uint64_t seed) {
  const RotatedWorkload w = make_rotated(seed, o.scale);
  const RunExtract actual = run_rotated_overlay(w, o, /*truth=*/false);
  const RunExtract truth = run_rotated_overlay(w, o, /*truth=*/true);
  return reduce(seed, actual, truth.log);
}

}  // namespace

std::uint64_t derive_replica_seed(std::uint64_t root, std::size_t index) noexcept {
  // Affine stream through splitmix64's bijective finalizer: distinct indexes
  // give distinct pre-mix states, hence distinct seeds.
  std::uint64_t state = root + (static_cast<std::uint64_t>(index) + 1) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

std::optional<SweepScenario> parse_sweep_scenario(std::string_view name) noexcept {
  if (name == "game") return SweepScenario::kGame;
  if (name == "hft") return SweepScenario::kHft;
  if (name == "game_rotated" || name == "rotated") return SweepScenario::kGameRotated;
  return std::nullopt;
}

ReplicaMetrics run_replica(const SweepOptions& options, std::uint64_t seed) {
  switch (options.scenario) {
    case SweepScenario::kGame: return run_game_replica(options, seed);
    case SweepScenario::kHft: return run_hft_replica(options, seed);
    case SweepScenario::kGameRotated: return run_rotated_replica(options, seed);
  }
  throw std::invalid_argument("unknown sweep scenario");
}

MetricSummary summarize_metric(std::span<const double> values) {
  MetricSummary s;
  std::vector<double> finite;
  finite.reserve(values.size());
  for (const double v : values) {
    s.stats.add(v);
    if (std::isfinite(v)) finite.push_back(v);
  }
  s.ci = batch_means_ci(values);
  if (finite.empty()) return s;
  std::sort(finite.begin(), finite.end());
  const auto nearest_rank = [&](double q) {
    const double r = std::ceil(q * static_cast<double>(finite.size()));
    const auto idx = static_cast<std::size_t>(std::max(1.0, r)) - 1;
    return finite[std::min(idx, finite.size() - 1)];
  };
  s.p50 = nearest_rank(0.50);
  s.p90 = nearest_rank(0.90);
  s.p99 = nearest_rank(0.99);
  return s;
}

SweepResult run_sweep(const SweepOptions& options) {
  if (options.replicas == 0) throw std::invalid_argument("run_sweep: replicas must be >= 1");
  SweepOptions opts = options;
  // Pin the effective link batch so results never depend on EVPS_LINK_BATCH.
  if (opts.link_batch_size == 0) opts.link_batch_size = 1;

  SweepResult result;
  result.options = opts;
  result.replicas.resize(opts.replicas);

  // Replica 0 runs inline first: it interns the scenario's complete
  // attribute/variable universe into the process-wide tables in a fixed
  // order, so concurrent workers can never race table growth into a
  // schedule-dependent id assignment.
  result.replicas[0] = run_replica(opts, derive_replica_seed(opts.root_seed, 0));
  if (opts.replicas > 1) {
    auto body = [&](std::size_t i) {
      result.replicas[i + 1] = run_replica(opts, derive_replica_seed(opts.root_seed, i + 1));
    };
    if (opts.workers <= 1) {
      for (std::size_t i = 0; i + 1 < opts.replicas; ++i) body(i);
    } else {
      ThreadPool pool(opts.workers - 1);
      pool.run_indexed(opts.replicas - 1, body);
    }
  }

  // Sequential fold in replica-index order: bit-identical aggregates for any
  // worker count (see OnlineStats::combine's rounding note).
  const auto column = [&](auto getter) {
    std::vector<double> v;
    v.reserve(result.replicas.size());
    for (const ReplicaMetrics& m : result.replicas) v.push_back(getter(m));
    return summarize_metric(v);
  };
  result.latency_mean = column([](const ReplicaMetrics& m) { return m.latency_mean; });
  result.latency_p99 = column([](const ReplicaMetrics& m) { return m.latency_p99; });
  result.accuracy = column([](const ReplicaMetrics& m) { return m.accuracy; });
  result.deliveries =
      column([](const ReplicaMetrics& m) { return static_cast<double>(m.deliveries); });
  result.overlay_msgs =
      column([](const ReplicaMetrics& m) { return static_cast<double>(m.overlay_msgs); });
  result.msgs_per_delivery = column([](const ReplicaMetrics& m) { return m.msgs_per_delivery; });
  result.subscription_msgs =
      column([](const ReplicaMetrics& m) { return static_cast<double>(m.subscription_msgs); });
  return result;
}

}  // namespace evps
