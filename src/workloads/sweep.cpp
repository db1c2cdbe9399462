#include "workloads/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "metrics/accuracy.hpp"
#include "stats/quantile_sketch.hpp"
#include "workloads/star.hpp"

namespace evps {

namespace {

/// Game characters: the largest base population a scenario profile scales.
constexpr std::size_t kGameCharacters = 48;

[[nodiscard]] std::size_t scaled(std::size_t base, double scale) {
  const double v = std::round(static_cast<double>(base) * scale);
  return static_cast<std::size_t>(std::max(1.0, v));
}

/// Everything read out of one finished overlay before it is destroyed.
struct RunExtract {
  DeliveryLog log;
  QuantileSketch latency;
  OnlineStats latency_stats;
  std::uint64_t fingerprint = 0;
  std::uint64_t overlay_msgs = 0;
  std::uint64_t subscription_msgs = 0;

  explicit RunExtract(double eps) : latency(eps) {}
};

RunExtract extract_run(Overlay& overlay, double eps) {
  RunExtract out{eps};
  out.log = collect_delivery_log(overlay);
  out.fingerprint = delivery_fingerprint(overlay);
  out.overlay_msgs = overlay.network().messages_sent();
  out.subscription_msgs = overlay.total_subscription_msgs();
  for (const auto& client : overlay.clients()) {
    for (const auto& d : client->deliveries()) {
      const double latency = (d.when - d.pub.entry_time()).count_seconds();
      out.latency.add(latency);
      out.latency_stats.add(latency);
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

/// Run a game or hft experiment, then its ground-truth twin: the same
/// config on the centralised system, one matcher shard, no link batching.
template <typename Experiment, typename Config>
ReplicaMetrics run_with_twin(const SweepOptions& o, std::uint64_t seed, Config cfg) {
  Experiment actual(cfg);
  actual.run();
  const RunExtract ex = extract_run(actual.overlay(), o.latency_eps);

  cfg.system = SystemKind::kGroundTruth;
  cfg.matcher_threads = 0;
  cfg.link_batch_size = 1;
  Experiment truth(cfg);
  truth.run();
  return reduce(seed, ex, truth.delivery_log());
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
  cfg.characters = scaled(kGameCharacters, o.scale);
  cfg.clients = scaled(12, o.scale);
  cfg.pub_rate = 40.0;
  cfg.move_epoch = Duration::seconds(4.0);
  cfg.duration = SimTime::from_seconds(20.0);
  return cfg;
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

// --- game_rotated ----------------------------------------------------------
//
// The star workload of workloads/star.hpp: advertisement routing plus the
// covering/relational stack under evolving variables — the sweep dimension
// the plain game scenario (one broker) cannot reach. The generated inputs
// are replayed into both the distributed star and a centralised
// zero-latency twin; accuracy measures what the propagation delay of centre
// updates costs.

ReplicaMetrics run_rotated_replica(const SweepOptions& o, std::uint64_t seed) {
  const StarWorkload w = make_rotated(seed, scaled(3, o.scale));
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.engine.matcher = o.matcher;
  cfg.engine.matcher_threads = o.matcher_threads;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = true;
  cfg.relational_covering = true;
  cfg.link_batch_size = o.link_batch_size;
  BrokerConfig truth_cfg = cfg;
  truth_cfg.engine.matcher_threads = 0;
  truth_cfg.covering = false;
  truth_cfg.relational_covering = false;
  truth_cfg.link_batch_size = 1;

  const auto run = [&](const BrokerConfig& c, bool central) {
    Simulator sim;
    Overlay overlay{sim};
    run_star(w, c, central, overlay);
    return extract_run(overlay, o.latency_eps);
  };
  const RunExtract actual = run(cfg, /*central=*/false);
  return reduce(seed, actual, run(truth_cfg, /*central=*/true).log);
}

}  // namespace

std::uint64_t derive_replica_seed(std::uint64_t root, std::size_t index) noexcept {
  // Affine stream through splitmix64's bijective finalizer: distinct indexes
  // give distinct pre-mix states, hence distinct seeds.
  std::uint64_t state = root + (static_cast<std::uint64_t>(index) + 1) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

bool valid_scale(double scale) noexcept {
  return scale > 0 &&
         std::round(static_cast<double>(kGameCharacters) * scale) <= kMaxScaledPopulation;
}

std::optional<SweepScenario> parse_sweep_scenario(std::string_view name) noexcept {
  if (name == "game") return SweepScenario::kGame;
  if (name == "hft") return SweepScenario::kHft;
  if (name == "game_rotated" || name == "rotated") return SweepScenario::kGameRotated;
  return std::nullopt;
}

ReplicaMetrics run_replica(const SweepOptions& options, std::uint64_t seed) {
  switch (options.scenario) {
    case SweepScenario::kGame:
      return run_with_twin<GameExperiment>(options, seed, game_profile(options, seed));
    case SweepScenario::kHft:
      return run_with_twin<HftExperiment>(options, seed, hft_profile(options, seed));
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
  if (!valid_scale(options.scale)) throw std::invalid_argument("run_sweep: invalid scale");
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
