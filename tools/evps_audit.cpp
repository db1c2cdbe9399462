// evps-audit — whole-overlay static verification of routing state.
//
// Builds a simulated broker overlay, replays a scenario file (the evps-lint
// grammar: var / adv / sub directives) against it, lets the simulation
// settle, then exports a quiesced snapshot of every broker
// (Broker::export_snapshot) and verifies the global routing invariants with
// the OverlayAuditor (analysis/audit): delivery completeness, covering-
// forest well-formedness, quiescence, and no ghost state. Violations print
// lint-style (broker, subscription, witness chain).
//
// Options:
//   --overlay=line|star      overlay topology (default line)
//   --brokers=N              broker count (default 3; star: 1 hub + N-1 leaves)
//   --engine=KIND            static|parametric|ves|lees|clees|hybrid (default clees)
//   --routing=MODE           flooding|advertisement (default flooding)
//   --covering               enable covering-based subscription routing
//   --link-batch=N           per-link publication batch size (default 1)
//   --settle=SECONDS         virtual time to quiesce after the replay (default 5)
//   --json                   machine-readable report on stdout
//   --dump                   print the canonical snapshot text (debugging)
//
// Exit codes mirror evps-lint: 0 = all invariants hold, 1 = at least one
// violation (or scenario error), 2 = usage or file I/O problem.
//
// The --json schema wraps the auditor's report:
//   {"path": "...", "exit": 0|1,
//    "clean": bool, "brokers": N, "subscriptions": N, "paths": N,
//    "witnesses": N,
//    "violations": [{"invariant": "...", "broker": "...", "sub": id|null,
//                    "message": "...", "witness": ["...", ...]}, ...]}
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/scenario.hpp"
#include "broker/audit_hook.hpp"
#include "broker/overlay.hpp"
#include "common/string_util.hpp"

namespace {

using namespace evps;

struct Options {
  std::string overlay = "line";
  std::size_t brokers = 3;
  std::string engine = "clees";
  std::string routing = "flooding";
  bool covering = false;
  std::size_t link_batch = 1;
  double settle = 5.0;
  bool json = false;
  bool dump = false;
};

bool parse_engine(const std::string& name, EngineKind& out) {
  if (name == "static") {
    out = EngineKind::kStatic;
  } else if (name == "parametric") {
    out = EngineKind::kParametric;
  } else if (name == "ves") {
    out = EngineKind::kVes;
  } else if (name == "lees") {
    out = EngineKind::kLees;
  } else if (name == "clees") {
    out = EngineKind::kClees;
  } else if (name == "hybrid") {
    out = EngineKind::kHybrid;
  } else {
    return false;
  }
  return true;
}

int audit_file(const std::string& path, const Options& opts) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "evps-audit: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Scenario scenario = parse_scenario(buffer.str());

  int scenario_errors = 0;
  for (const ScenarioDirective& d : scenario.directives) {
    if (d.kind != ScenarioDirective::Kind::kError) continue;
    ++scenario_errors;
    if (!opts.json) {
      std::cerr << path << ":" << d.line_no << ": error: " << d.error_message << "\n";
      std::cerr << "  " << d.line << "\n";
      std::cerr << "  " << std::string(d.body_col + d.error_offset, ' ') << '^'
                << std::string(d.error_token.size() > 1 ? d.error_token.size() - 1 : 0, '~')
                << "\n";
    }
  }

  EngineKind engine_kind = EngineKind::kClees;
  parse_engine(opts.engine, engine_kind);

  BrokerConfig config;
  config.engine.kind = engine_kind;
  config.routing =
      opts.routing == "advertisement" ? RoutingMode::kAdvertisement : RoutingMode::kFlooding;
  config.covering = opts.covering;
  config.link_batch_size = opts.link_batch;

  Simulator sim;
  Overlay overlay(sim);
  const std::size_t broker_count = std::max<std::size_t>(opts.brokers, 1);
  std::vector<Broker*> brokers =
      opts.overlay == "star" && broker_count > 1
          ? overlay.build_star(broker_count - 1, config, Duration::seconds(0.001))
          : overlay.build_line(broker_count, config, Duration::seconds(0.001));

  // One publisher at the first broker (advertisements + variable pushes),
  // one subscriber per broker; subscriptions round-robin across them so the
  // auditor has cross-overlay paths to verify.
  PubSubClient& publisher = overlay.add_client("publisher");
  publisher.connect(*brokers.front(), Duration::seconds(0.001));
  std::vector<PubSubClient*> subscribers;
  subscribers.reserve(brokers.size());
  for (std::size_t i = 0; i < brokers.size(); ++i) {
    PubSubClient& sub = overlay.add_client("subscriber" + std::to_string(i));
    sub.connect(*brokers[i], Duration::seconds(0.001));
    subscribers.push_back(&sub);
  }

  // Replay in order; directives take effect before later ones are issued
  // (run_until, not run_all — evolving engines keep re-arming timers).
  const Duration step = Duration::seconds(1.0);
  std::size_t next_subscriber = 0;
  try {
    for (const ScenarioDirective& d : scenario.directives) {
      switch (d.kind) {
        case ScenarioDirective::Kind::kVar:
          // Declared ranges are broker-local contract metadata: install the
          // declaration on every broker, then flood the value.
          for (Broker* b : brokers) b->variables().declare_range(d.var_name, d.var_lo, d.var_hi);
          if (d.var_has_value) brokers.front()->set_variable(d.var_name, d.var_value);
          break;
        case ScenarioDirective::Kind::kAdv:
          publisher.advertise(d.sub.predicates());
          break;
        case ScenarioDirective::Kind::kSub: {
          subscribers[next_subscriber]->subscribe(d.sub);
          next_subscriber = (next_subscriber + 1) % subscribers.size();
          break;
        }
        case ScenarioDirective::Kind::kError:
          break;
      }
      sim.run_until(sim.now() + step);
    }
    sim.run_until(sim.now() + Duration::seconds(opts.settle));
  } catch (const std::exception& e) {
    // The overlay itself refused the scenario (e.g. an evolving subscription
    // against --engine=static): the audit cannot be completed.
    std::cerr << "evps-audit: " << path << ": replay failed: " << e.what() << "\n";
    return 2;
  }

  const audit::OverlaySnapshot snap = audit::snapshot_overlay(overlay);
  if (opts.dump && !opts.json) std::cout << audit::canonical_text(snap);
  const audit::AuditReport report = audit::OverlayAuditor().audit(snap);

  const int rc = (!report.clean() || scenario_errors != 0) ? 1 : 0;
  if (opts.json) {
    std::ostringstream os;
    report.to_json(os);
    std::string body = os.str();
    // Splice path/exit/scenario_errors into the report object.
    std::cout << "{\"path\":\"" << path << "\",\"exit\":" << rc
              << ",\"scenario_errors\":" << scenario_errors << "," << body.substr(1) << "\n";
  } else {
    std::cout << report.format();
    std::cout << path << ": " << (rc == 0 ? "clean" : "VIOLATIONS FOUND") << "\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> paths;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (arg == "--covering") {
        opts.covering = true;
      } else if (arg == "--json") {
        opts.json = true;
      } else if (arg == "--dump") {
        opts.dump = true;
      } else if (arg.starts_with("--overlay=")) {
        opts.overlay = std::string(arg.substr(10));
      } else if (arg.starts_with("--engine=")) {
        opts.engine = std::string(arg.substr(9));
      } else if (arg.starts_with("--routing=")) {
        opts.routing = std::string(arg.substr(10));
      } else if (parse_number_flag(arg, "--brokers=", opts.brokers) ||
                 parse_number_flag(arg, "--link-batch=", opts.link_batch) ||
                 parse_number_flag(arg, "--settle=", opts.settle)) {
        // handled
      } else if (arg == "--help" || arg == "-h") {
        paths.clear();
        break;
      } else if (!arg.empty() && arg.front() == '-') {
        std::cerr << "evps-audit: unknown option " << arg << "\n";
        return 2;
      } else {
        paths.emplace_back(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "evps-audit: bad value in " << arg << "\n";
      return 2;
    }
  }
  EngineKind ignored{};
  if (!parse_engine(opts.engine, ignored)) {
    std::cerr << "evps-audit: unknown engine " << opts.engine << "\n";
    usage_error = true;
  }
  if (opts.overlay != "line" && opts.overlay != "star") {
    std::cerr << "evps-audit: unknown overlay " << opts.overlay << "\n";
    usage_error = true;
  }
  if (opts.routing != "flooding" && opts.routing != "advertisement") {
    std::cerr << "evps-audit: unknown routing mode " << opts.routing << "\n";
    usage_error = true;
  }
  if (paths.empty() || usage_error) {
    std::cerr
        << "usage: evps-audit [options] <scenario>...\n"
        << "Replays scenarios (evps-lint grammar) against a simulated overlay and\n"
        << "statically verifies global routing invariants over the end state.\n"
        << "  --overlay=line|star      topology (default line)\n"
        << "  --brokers=N              broker count (default 3)\n"
        << "  --engine=KIND            static|parametric|ves|lees|clees|hybrid (default clees)\n"
        << "  --routing=MODE           flooding|advertisement (default flooding)\n"
        << "  --covering               covering-based subscription routing\n"
        << "  --link-batch=N           per-link batch size (default 1)\n"
        << "  --settle=SECONDS         settle time before the snapshot (default 5)\n"
        << "  --json                   machine-readable report on stdout\n"
        << "  --dump                   print the canonical snapshot text\n"
        << "Exit codes: 0 invariants hold, 1 violations found, 2 usage/IO error.\n";
    return 2;
  }
  int rc = 0;
  for (const std::string& path : paths) {
    rc = std::max(rc, audit_file(path, opts));
  }
  return rc;
}
