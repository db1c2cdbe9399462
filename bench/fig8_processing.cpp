// Figure 8 (a)-(d): broker processing time for handling evolutions in the
// MMOG use case, across workload settings.
//
// Metric (Section VI-A3): for VES, the time spent updating subscription
// versions; for LEES/CLEES, the on-demand evaluation overhead. Panels:
//   (a) baseline: processing time vs number of subscriptions
//   (b) publication rate x2      -> LEES/CLEES grow, VES unaffected
//   (c) 50/50 evolving/static    -> LEES improves, VES unaffected
//   (d) evolution rate x2 (MEI/2)-> VES grows, LEES/CLEES unaffected
#include <iostream>

#include "metrics/report.hpp"
#include "workloads/game.hpp"

namespace {

using namespace evps;

struct Variant {
  const char* name;
  double pub_rate_factor = 1.0;
  double evolving_fraction = 1.0;
  double mei_factor = 1.0;
};

EngineCosts run_costs(SystemKind system, std::size_t characters, const Variant& variant) {
  GameConfig cfg;
  cfg.system = system;
  cfg.seed = 7;
  cfg.characters = characters;
  cfg.clients = 100;
  cfg.pub_rate = 200.0 * variant.pub_rate_factor;
  cfg.evolving_fraction = variant.evolving_fraction;
  cfg.mei = Duration::seconds(1.0 * variant.mei_factor);
  cfg.tt = Duration::seconds(1.0);
  cfg.duration = SimTime::from_seconds(20.0);
  GameExperiment exp(cfg);
  exp.run();
  return exp.engine_costs();
}

double processing_ms(const EngineCosts& costs) {
  return (costs.maintenance.sum() + costs.lazy_eval.sum()) * 1000.0;
}

/// One row per population. The last two columns count LEES's exact probes
/// and, of those, the ones its envelope filter could not select (scanned).
void panel(const char* title, const Variant& variant,
           std::initializer_list<unsigned> sizes = {250u, 500u, 1000u, 2000u}) {
  print_banner(title);
  Table t{{"subscriptions", "VES (ms)", "LEES (ms)", "CLEES (ms)", "LEES probes",
           "LEES scanned"}};
  for (const std::size_t n : sizes) {
    const EngineCosts lees = run_costs(SystemKind::kLees, n, variant);
    t.add_row({std::to_string(n),
               Table::fmt(processing_ms(run_costs(SystemKind::kVes, n, variant)), 1),
               Table::fmt(processing_ms(lees), 1),
               Table::fmt(processing_ms(run_costs(SystemKind::kClees, n, variant)), 1),
               std::to_string(lees.lazy_evaluations), std::to_string(lees.scan_probes)});
  }
  t.print();
}

}  // namespace

int main() {
  std::cout << "Reproduction of Figure 8: game-broker processing time (20 s window)\n";
  panel("Figure 8(a): baseline (200 pubs/s, all evolving, MEI/TT = 1 s)", {"baseline"},
        {250u, 500u, 1000u, 2000u, 4000u, 8000u});
  panel("Figure 8(b): publication rate x2 (400 pubs/s)", {"pubx2", 2.0, 1.0, 1.0});
  panel("Figure 8(c): 50/50 evolving/static subscriptions", {"split", 1.0, 0.5, 1.0});
  panel("Figure 8(d): evolution rate x2 (MEI = 0.5 s)", {"meix2", 1.0, 1.0, 0.5});
  std::cout << "\npaper shapes: CLEES best at high sub counts; VES grows with total subs\n"
               "and with evolution rate but is unaffected by pubs; LEES/CLEES grow with\n"
               "pub rate; only LEES benefits from the 50/50 split.\n";
  return 0;
}
