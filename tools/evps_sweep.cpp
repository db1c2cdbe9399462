// evps-sweep: Monte-Carlo capacity-planning harness.
//
// Runs N independently seeded replicas of a scenario (optionally across
// worker threads — every replica is bit-deterministic in (scenario, seed),
// so the worker count never changes a single output bit), aggregates the
// replica metrics into distributions with batch-means 95 % confidence
// intervals, prints a summary table, and records everything under the
// "sweep" section of a shared BENCH JSON file for the regression comparator
// (scripts/sweep_compare.py).
//
//   evps-sweep --scenario=all --replicas=200 --workers=4 --out=BENCH_sweep.json
//
// --selfcheck re-runs replica 0 of every swept scenario and requires the
// re-run to reproduce the recorded metrics bit for bit (and all defined CIs
// to be finite) — the smoke-level determinism gate scripts/check.sh runs.
//
// Exit codes: 0 ok, 1 self-check failure, 2 usage/IO error.
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.hpp"
#include "metrics/report.hpp"
#include "stats/quantile_sketch.hpp"
#include "workloads/sweep.hpp"

namespace {

using namespace evps;

struct Options {
  std::string scenario = "all";
  SweepOptions sweep;
  std::string out = "BENCH_sweep.json";
  bool selfcheck = false;
  bool quiet = false;
};

bool parse_system(const std::string& name, SystemKind& out) {
  if (name == "resub") out = SystemKind::kResub;
  else if (name == "parametric") out = SystemKind::kParametric;
  else if (name == "ves") out = SystemKind::kVes;
  else if (name == "lees") out = SystemKind::kLees;
  else if (name == "clees") out = SystemKind::kClees;
  else if (name == "hybrid") out = SystemKind::kHybrid;
  else return false;
  return true;
}

bool parse_matcher(const std::string& name, MatcherKind& out) {
  if (name == "brute") out = MatcherKind::kBruteForce;
  else if (name == "counting") out = MatcherKind::kCounting;
  else return false;
  return true;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string metric_json(const MetricSummary& m) {
  std::ostringstream os;
  os << "{\"n\":" << m.stats.count() << ",\"mean\":" << json_num(m.stats.mean())
     << ",\"ci95\":" << (m.ci.defined ? json_num(m.ci.half_width) : "null")
     << ",\"batches\":" << m.ci.batches << ",\"p50\":" << json_num(m.p50)
     << ",\"p90\":" << json_num(m.p90) << ",\"p99\":" << json_num(m.p99)
     << ",\"min\":" << json_num(m.stats.min()) << ",\"max\":" << json_num(m.stats.max())
     << ",\"stddev\":" << json_num(m.stats.stddev()) << "}";
  return os.str();
}

std::string ci_cell(const MetricSummary& m) {
  if (!m.ci.defined) return Table::fmt(m.stats.mean(), 4) + " (n/a)";
  return Table::fmt(m.stats.mean(), 4) + " +- " + Table::fmt(m.ci.half_width, 4);
}

void print_scenario(const SweepResult& r) {
  print_banner(std::string("sweep: ") + to_string(r.options.scenario) + " (" +
               std::to_string(r.options.replicas) + " replicas, seed " +
               std::to_string(r.options.root_seed) + ")");
  Table table({"metric", "mean +- ci95", "p50", "p90", "p99", "min", "max"});
  const auto row = [&](const char* name, const MetricSummary& m, int prec) {
    table.add_row({name, ci_cell(m), Table::fmt(m.p50, prec), Table::fmt(m.p90, prec),
                   Table::fmt(m.p99, prec), Table::fmt(m.stats.min(), prec),
                   Table::fmt(m.stats.max(), prec)});
  };
  row("latency mean (s)", r.latency_mean, 4);
  row("latency p99 (s)", r.latency_p99, 4);
  row("accuracy", r.accuracy, 4);
  row("deliveries", r.deliveries, 0);
  row("overlay msgs", r.overlay_msgs, 0);
  row("msgs/delivery", r.msgs_per_delivery, 2);
  row("subscription msgs", r.subscription_msgs, 0);
  table.print();
  std::cout << "\n";
}

std::string scenario_json(const SweepResult& r) {
  std::ostringstream os;
  os << "{\"replicas\":" << r.options.replicas << ",\"root_seed\":" << r.options.root_seed
     << ",\"first_fingerprint\":\"" << std::hex << r.replicas.front().fingerprint << std::dec
     << "\",\"latency_mean_s\":" << metric_json(r.latency_mean)
     << ",\"latency_p99_s\":" << metric_json(r.latency_p99)
     << ",\"accuracy\":" << metric_json(r.accuracy)
     << ",\"deliveries\":" << metric_json(r.deliveries)
     << ",\"overlay_msgs\":" << metric_json(r.overlay_msgs)
     << ",\"msgs_per_delivery\":" << metric_json(r.msgs_per_delivery)
     << ",\"subscription_msgs\":" << metric_json(r.subscription_msgs) << "}";
  return os.str();
}

/// Re-run replica 0 and require bit-identical metrics plus finite CIs.
bool selfcheck(const SweepResult& r) {
  const ReplicaMetrics again =
      run_replica(r.options, derive_replica_seed(r.options.root_seed, 0));
  if (!(again == r.replicas.front())) {
    std::cerr << "evps-sweep: SELF-CHECK FAILED: replica 0 of " << to_string(r.options.scenario)
              << " did not reproduce bit-identically\n";
    return false;
  }
  for (const MetricSummary* m : {&r.latency_mean, &r.latency_p99, &r.accuracy, &r.deliveries,
                                 &r.overlay_msgs, &r.msgs_per_delivery, &r.subscription_msgs}) {
    if (m->ci.defined && !std::isfinite(m->ci.half_width)) {
      std::cerr << "evps-sweep: SELF-CHECK FAILED: non-finite CI in "
                << to_string(r.options.scenario) << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string engine = "lees";
  std::string matcher = "counting";
  std::string routing = "flooding";
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (arg.starts_with("--scenario=")) {
        opts.scenario = std::string(arg.substr(11));
      } else if (arg.starts_with("--engine=")) {
        engine = std::string(arg.substr(9));
      } else if (arg.starts_with("--matcher=")) {
        matcher = std::string(arg.substr(10));
        if (!parse_matcher(matcher, opts.sweep.matcher)) throw std::invalid_argument("matcher");
      } else if (arg.starts_with("--routing=")) {
        routing = std::string(arg.substr(10));
      } else if (arg.starts_with("--out=")) {
        opts.out = std::string(arg.substr(6));
      } else if (arg == "--selfcheck") {
        opts.selfcheck = true;
      } else if (arg == "--quiet") {
        opts.quiet = true;
      } else if (parse_number_flag(arg, "--scale=", opts.sweep.scale)) {
        if (!valid_scale(opts.sweep.scale)) throw std::invalid_argument("scale");
      } else if (parse_number_flag(arg, "--eps=", opts.sweep.latency_eps)) {
        // The latency sketch throws std::invalid_argument on an eps it rejects.
        static_cast<void>(QuantileSketch{opts.sweep.latency_eps});
      } else if (parse_number_flag(arg, "--replicas=", opts.sweep.replicas) ||
                 parse_number_flag(arg, "--seed=", opts.sweep.root_seed) ||
                 parse_number_flag(arg, "--workers=", opts.sweep.workers) ||
                 parse_number_flag(arg, "--shards=", opts.sweep.matcher_threads) ||
                 parse_number_flag(arg, "--link-batch=", opts.sweep.link_batch_size)) {
        // handled
      } else if (arg == "--help" || arg == "-h") {
        help = true;
      } else {
        std::cerr << "evps-sweep: unknown option " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "evps-sweep: bad value in " << arg << "\n";
      return 2;
    }
  }

  bool usage_error = false;
  if (!parse_system(engine, opts.sweep.system)) {
    std::cerr << "evps-sweep: unknown engine " << engine << "\n";
    usage_error = true;
  }
  if (routing == "advertisement") {
    opts.sweep.routing = RoutingMode::kAdvertisement;
  } else if (routing != "flooding") {
    std::cerr << "evps-sweep: unknown routing mode " << routing << "\n";
    usage_error = true;
  }
  std::vector<SweepScenario> scenarios;
  if (opts.scenario == "all") {
    scenarios = {SweepScenario::kGame, SweepScenario::kHft, SweepScenario::kGameRotated};
  } else if (const auto s = parse_sweep_scenario(opts.scenario)) {
    scenarios = {*s};
  } else {
    std::cerr << "evps-sweep: unknown scenario " << opts.scenario << "\n";
    usage_error = true;
  }
  if (opts.sweep.replicas == 0 || opts.sweep.workers == 0) {
    std::cerr << "evps-sweep: --replicas and --workers must be >= 1\n";
    usage_error = true;
  }
  if (help || usage_error) {
    std::cerr
        << "usage: evps-sweep [options]\n"
        << "Monte-Carlo capacity planning: independently seeded scenario replicas,\n"
        << "aggregated into distributions with batch-means 95% confidence intervals.\n"
        << "  --scenario=NAME          game|hft|game_rotated|all (default all)\n"
        << "  --replicas=N             replicas per scenario (default 200)\n"
        << "  --seed=R                 root seed (default 1)\n"
        << "  --workers=N              worker threads incl. caller (default 1)\n"
        << "  --engine=KIND            resub|parametric|ves|lees|clees|hybrid (default lees)\n"
        << "  --matcher=KIND           brute|counting (default counting)\n"
        << "  --routing=MODE           flooding|advertisement, hft only (default flooding)\n"
        << "  --shards=N               matcher shards per broker (default 0 = single)\n"
        << "  --link-batch=N           per-link batch size (default 1)\n"
        << "  --scale=F                population scale factor, > 0, scaled populations\n"
        << "                           at most 1e6 (default 1.0)\n"
        << "  --eps=F                  latency sketch rank error, in (0, 0.5) (default 0.005)\n"
        << "  --out=PATH               JSON results file (default BENCH_sweep.json)\n"
        << "  --selfcheck              re-run replica 0, require bit-identical metrics\n"
        << "  --quiet                  suppress the summary tables\n"
        << "Exit codes: 0 ok, 1 self-check failure, 2 usage/IO error.\n";
    return help && !usage_error ? 0 : 2;
  }

  std::ostringstream body;
  body << "{\"config\":{\"engine\":\"" << engine << "\",\"matcher\":\"" << matcher
       << "\",\"routing\":\"" << routing << "\",\"workers\":" << opts.sweep.workers
       << ",\"shards\":" << opts.sweep.matcher_threads
       << ",\"link_batch\":" << opts.sweep.link_batch_size
       << ",\"scale\":" << json_num(opts.sweep.scale)
       << ",\"eps\":" << json_num(opts.sweep.latency_eps) << "},\"scenarios\":{";
  bool first = true;
  for (const SweepScenario scenario : scenarios) {
    SweepOptions so = opts.sweep;
    so.scenario = scenario;
    const SweepResult result = run_sweep(so);
    if (!opts.quiet) print_scenario(result);
    if (opts.selfcheck && !selfcheck(result)) return 1;
    body << (first ? "" : ",") << "\"" << to_string(scenario) << "\":" << scenario_json(result);
    first = false;
  }
  body << "}}";
  if (!write_json_section(opts.out, "sweep", body.str())) {
    std::cerr << "evps-sweep: cannot write " << opts.out << "\n";
    return 2;
  }
  if (!opts.quiet) std::cout << "results appended to " << opts.out << " (section \"sweep\")\n";
  return 0;
}
