// Figure 10 (a)-(b): maximum sustained publication throughput of the lazy
// engines.
//
//   (a) throughput vs number of evolving subscriptions (fixed 100 clients)
//   (b) throughput vs number of clients at a constant 1000 subscriptions —
//       the subscription-to-client ratio effect: LEES benefits from dense
//       per-client subscriptions because lazy evaluation early-exits per
//       client, while many sparse clients force exhaustive evaluation.
//       CLEES is less sensitive since cache hits replace evaluations.
//
// Engines are driven directly (no network) and timed with the wall clock.
#include <chrono>
#include <iostream>

#include "engine_bench.hpp"
#include "metrics/report.hpp"

namespace {

using namespace evps;
using namespace evps_bench;

/// Measured pubs/s for `kind` with n_subs spread over n_clients.
double throughput(EngineKind kind, std::size_t n_subs, std::size_t n_clients,
                  std::size_t n_pubs) {
  constexpr double kWorld = 100.0;
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  const auto engine = make_engine(cfg);
  Rng rng{1234};
  for (std::size_t i = 0; i < n_subs; ++i) {
    engine->add(random_aoi(i + 1, rng, kWorld, Duration::seconds(1.0)), NodeId{i % n_clients},
                host);
  }
  // Pre-generate publications so generation cost stays out of the timing.
  std::vector<Publication> pubs;
  pubs.reserve(n_pubs);
  for (std::size_t i = 0; i < n_pubs; ++i) {
    Publication pub;
    pub.set("x", rng.uniform(-kWorld, kWorld));
    pub.set("y", rng.uniform(-kWorld, kWorld));
    pubs.push_back(std::move(pub));
  }

  std::vector<NodeId> dests;
  std::size_t delivered = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_pubs; ++i) {
    // Advance virtual time ~1 ms per publication (keeps VES/CLEES honest).
    host.advance_to(SimTime::from_micros(static_cast<std::int64_t>(i) * 1000));
    dests.clear();
    engine->match(pubs[i], nullptr, host, dests);
    delivered += dests.size();
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  static volatile std::size_t sink = 0;
  sink = sink + delivered;
  return static_cast<double>(n_pubs) / elapsed;
}

}  // namespace

int main() {
  std::cout << "Reproduction of Figure 10(a)/(b): lazy-engine publication throughput\n";

  print_banner("Figure 10(a): throughput vs evolving subscriptions (100 clients)");
  {
    Table t{{"evolving subs", "VES (pubs/s)", "LEES (pubs/s)", "CLEES (pubs/s)"}};
    for (const std::size_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
      t.add_row({std::to_string(n),
                 Table::fmt(throughput(EngineKind::kVes, n, 100, 4000), 0),
                 Table::fmt(throughput(EngineKind::kLees, n, 100, 4000), 0),
                 Table::fmt(throughput(EngineKind::kClees, n, 100, 4000), 0)});
    }
    t.print();
    std::cout << "paper: LEES throughput degrades with subscription count; CLEES is\n"
                 "less sensitive thanks to the version cache.\n";
  }

  print_banner("Figure 10(b): throughput vs clients (1000 evolving subs)");
  {
    Table t{{"clients", "subs/client", "LEES (pubs/s)", "CLEES (pubs/s)"}};
    for (const std::size_t c : {1u, 10u, 100u, 1000u}) {
      t.add_row({std::to_string(c), std::to_string(1000 / c),
                 Table::fmt(throughput(EngineKind::kLees, 1000, c, 4000), 0),
                 Table::fmt(throughput(EngineKind::kClees, 1000, c, 4000), 0)});
    }
    t.print();
    std::cout << "paper: LEES is fastest when subscriptions concentrate on few clients\n"
                 "(early exit per client) and degrades as they disperse; CLEES is less\n"
                 "sensitive to the ratio.\n";
  }
  return 0;
}
