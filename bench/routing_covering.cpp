// Covering-based subscription routing: dissemination traffic and matcher
// population, off vs on.
//
// Three clustered-subscriber workloads run on advertisement-mode star
// overlays (workloads/star.hpp):
//
//   game — moving-interest zones: per edge broker, subscriber clusters pick
//     a hotspot; one wide zone per cluster covers a pile of narrower (and
//     evolving, load-scaled) zones from the same cluster.
//   hft  — price bands: wide desk-level band subscriptions covering nested
//     per-trader bands, plus exact duplicates (identical alert rules),
//     which also exercises the engines' identical-predicate dedup.
//   game_rotated — the sweep's rotated-coordinate moving zones
//     (make_rotated, seed 4091, 12 clusters, core + 3 edges): every zone
//     tracks its cluster's centre *variables*, so the per-attribute inner
//     shape of each coverer is empty and only the relational (octagon)
//     refinement can prove the covering. This workload runs three ways —
//     covering off, covering on with relational off, and covering on with
//     relational on — to isolate the relational delta.
//
// game and hft run on core + 4 edges with an unsubscribe wave that removes
// ~20% of the coverers mid-run (uncover-on-remove re-dissemination), each
// publication feed published before and after it. Every configuration of a
// workload replays the same inputs and must produce the same delivery
// fingerprint (checked; the bench exits nonzero on divergence, so the
// bench-smoke ctest entry doubles as a regression test), while the covering
// run must need fewer subscription-dissemination messages and smaller
// matchers.
//
// Results are printed as tables and recorded in BENCH_routing.json
// (argv[1] overrides the output path).
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/report.hpp"
#include "workloads/star.hpp"

namespace {

using namespace evps;

constexpr std::size_t kEdges = 4;
constexpr int kClustersPerEdge = 3;
constexpr int kCoveredPerCluster = 6;
constexpr std::uint64_t kRotatedSeed = 4091;
constexpr std::size_t kRotatedClusters = 12;

struct RunStats {
  std::uint64_t subscription_msgs = 0;
  std::uint64_t matcher_population = 0;
  std::uint64_t deduped_installs = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t demote_unsubscribes = 0;
  std::uint64_t resubscribes = 0;
  CoverStats pairs;
  std::uint64_t fingerprint = 0;
};

/// The star the game and hft workloads share: core + kEdges edges, 1 ms
/// client links, one load-style variable in [0, 1].
StarWorkload routing_star(std::string adv, std::string var, double value) {
  StarWorkload w;
  w.edges = kEdges;
  w.client_latency = Duration::millis(1);
  w.adv = std::move(adv);
  w.vars.push_back({std::move(var), 0.0, 1.0, value});
  return w;
}

/// One cluster on edge `e`: two narrow subscriptions go before the wide
/// `coverer` — they start as roots and are demoted (retracted upstream) when
/// it arrives — then the rest. A `leaving` coverer unsubscribes in the wave
/// from 8 s.
void add_cluster(StarWorkload& w, std::size_t e, const std::vector<std::string>& narrow,
                 const std::string& coverer, bool leaving) {
  w.subs.push_back({narrow[0], e});
  w.subs.push_back({narrow[1], e});
  w.subs.push_back({coverer, e});
  if (leaving) {
    w.unsubs.push_back({8.0 + 0.05 * static_cast<double>(w.unsubs.size()), w.subs.size() - 1});
  }
  for (std::size_t s = 2; s < narrow.size(); ++s) w.subs.push_back({narrow[s], e});
}

/// Publish `pubs` from 4 s, and again from 10 s against the post-removal
/// state.
void publish_twice(StarWorkload& w, const std::vector<std::string>& pubs) {
  for (const double start : {4.0, 10.0}) {
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      w.pubs.push_back({start + 0.05 * static_cast<double>(i), pubs[i]});
    }
  }
}

/// Clustered game zones: per cluster one wide [c-60, c+60] x/y box covering
/// narrower static and load-scaled evolving zones around the same hotspot.
StarWorkload make_game_workload() {
  StarWorkload w = routing_star("x >= 0; x <= 1000; y >= 0; y <= 1000", "gz_load", 0.5);
  Rng rng{2024};
  std::vector<std::string> pubs;
  for (std::size_t e = 0; e < kEdges; ++e) {
    for (int c = 0; c < kClustersPerEdge; ++c) {
      const double cx = rng.uniform(100.0, 900.0);
      const double cy = rng.uniform(100.0, 900.0);
      std::vector<std::string> zones;
      for (int s = 0; s < kCoveredPerCluster; ++s) {
        const double r = rng.uniform(5.0, 40.0);
        const double ox = rng.uniform(-15.0, 15.0);
        const double oy = rng.uniform(-15.0, 15.0);
        const std::string y_range =
            "; y >= " + format_number(cy + oy - r) + "; y <= " + format_number(cy + oy + r);
        if (rng.bernoulli(0.3)) {
          // Evolving zone: gz_load in [0, 1] keeps the envelope within the
          // wide box (max reach 40 + 15 < 60).
          zones.push_back("[tt=0.5] x >= " + format_number(cx + ox - r) + "; x <= " +
                          format_number(cx + ox) + " + " + format_number(r * 0.5) +
                          " * gz_load" + y_range);
        } else {
          zones.push_back("x >= " + format_number(cx + ox - r) + "; x <= " +
                          format_number(cx + ox + r) + y_range);
        }
      }
      add_cluster(w, e, zones,
                  "x >= " + format_number(cx - 60) + "; x <= " + format_number(cx + 60) +
                      "; y >= " + format_number(cy - 60) + "; y <= " + format_number(cy + 60),
                  rng.bernoulli(0.25));
      // Publications aimed at the cluster so deliveries are non-trivial.
      for (int p = 0; p < 4; ++p) {
        pubs.push_back("x = " + format_number(cx + rng.uniform(-70.0, 70.0)) +
                       "; y = " + format_number(cy + rng.uniform(-70.0, 70.0)));
      }
    }
  }
  publish_twice(w, pubs);
  return w;
}

/// HFT price bands: desk-wide bands covering per-trader bands plus exact
/// duplicate alert rules (identical predicates, multiple subscribers).
StarWorkload make_hft_workload() {
  StarWorkload w = routing_star("price >= 0; price <= 1000", "hf_vix", 0.3);
  Rng rng{7};
  std::vector<std::string> pubs;
  const auto band = [](double lo, double hi) {
    return "price >= " + format_number(lo) + "; price <= " + format_number(hi);
  };
  for (std::size_t e = 0; e < kEdges; ++e) {
    for (int c = 0; c < kClustersPerEdge; ++c) {
      const double base = rng.uniform(50.0, 900.0);
      // The duplicate alert rules subscribe before the desk-wide band: the
      // first becomes a root, is demoted on the coverer's arrival, and both
      // exercise the engines' identical-predicate dedup.
      std::vector<std::string> bands(2, band(base - 10, base + 10));
      const bool leaving = rng.bernoulli(0.25);
      for (int s = 2; s < kCoveredPerCluster; ++s) {
        if (rng.bernoulli(0.3)) {
          // Volatility-scaled band: hf_vix in [0, 1] bounds the reach to 30.
          bands.push_back("[tt=0.5] price >= " + format_number(base - 20) + "; price <= " +
                          format_number(base) + " + 30 * hf_vix");
        } else {
          const double r = rng.uniform(5.0, 35.0);
          bands.push_back(band(base - r, base + r));
        }
      }
      add_cluster(w, e, bands, band(base - 40, base + 40), leaving);
      for (int p = 0; p < 4; ++p) {
        pubs.push_back("price = " + format_number(base + rng.uniform(-50.0, 50.0)));
      }
    }
  }
  publish_twice(w, pubs);
  return w;
}

/// Replay `w` on the LEES advertisement-routed star and sum the broker
/// counters.
RunStats run(const StarWorkload& w, bool covering_on, bool relational_on = true) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  cfg.covering = covering_on;
  cfg.relational_covering = relational_on;
  run_star(w, cfg, /*central=*/false, overlay);

  RunStats r;
  for (const auto& b : overlay.brokers()) {
    r.subscription_msgs += b->stats().subscription_msgs;
    r.matcher_population += b->engine().matcher_population();
    r.deduped_installs += b->engine().deduped_installs();
    r.suppressed += b->covering_counters().suppressed_forwards;
    r.demote_unsubscribes += b->covering_counters().demote_unsubscribes;
    r.resubscribes += b->covering_counters().resubscribes;
    const CoverStats cs = b->covering_stats();
    r.pairs.pairs += cs.pairs;
    r.pairs.covered += cs.covered;
    r.pairs.unknown += cs.unknown;
    r.pairs.relational += cs.relational;
  }
  for (const auto& c : overlay.clients()) r.deliveries += c->deliveries().size();
  r.fingerprint = delivery_fingerprint(overlay);
  return r;
}

double reduction_pct(const RunStats& base, const RunStats& opt) {
  return base.subscription_msgs == 0
             ? 0.0
             : 100.0 * (1.0 - static_cast<double>(opt.subscription_msgs) /
                                  static_cast<double>(base.subscription_msgs));
}

void json_on_stats(std::ostream& os, const RunStats& on) {
  os << "{\"subscription_msgs\":" << on.subscription_msgs
     << ",\"matcher_population\":" << on.matcher_population
     << ",\"deduped_installs\":" << on.deduped_installs << ",\"deliveries\":" << on.deliveries
     << ",\"suppressed_forwards\":" << on.suppressed
     << ",\"demote_unsubscribes\":" << on.demote_unsubscribes
     << ",\"resubscribes\":" << on.resubscribes << ",\"pairs_analyzed\":" << on.pairs.pairs
     << ",\"pairs_covered\":" << on.pairs.covered
     << ",\"pairs_relational\":" << on.pairs.relational << "}";
}

void json_off_stats(std::ostream& os, const RunStats& off) {
  os << "{\"subscription_msgs\":" << off.subscription_msgs
     << ",\"matcher_population\":" << off.matcher_population
     << ",\"deduped_installs\":" << off.deduped_installs << ",\"deliveries\":" << off.deliveries
     << "}";
}

void json_scenario(std::ostream& os, const std::string& name, const RunStats& off,
                   const RunStats& on) {
  os << "    {\"name\":\"" << name << "\",\"off\":";
  json_off_stats(os, off);
  os << ",\"on\":";
  json_on_stats(os, on);
  os << ",\"dissemination_reduction_pct\":" << reduction_pct(off, on) << "}";
}

/// Three-way rotated scenario: the relational delta is the difference
/// between covering-on-relational-off and covering-on-relational-on.
void json_rotated(std::ostream& os, const std::string& name, const StarWorkload& w,
                  const RunStats& off, const RunStats& per_attr, const RunStats& rel) {
  os << "    {\"name\":\"" << name << "\",\"seed\":" << kRotatedSeed
     << ",\"clusters\":" << kRotatedClusters << ",\"edges\":" << w.edges
     << ",\"subscriptions\":" << w.subs.size() << ",\"off\":";
  json_off_stats(os, off);
  os << ",\"on_perattr\":";
  json_on_stats(os, per_attr);
  os << ",\"on_relational\":";
  json_on_stats(os, rel);
  os << ",\"dissemination_reduction_pct\":" << reduction_pct(off, rel)
     << ",\"relational_reduction_pct\":" << reduction_pct(per_attr, rel) << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_routing.json";
  std::cout << "Covering-based subscription routing: dissemination and matcher population\n";

  bool diverged = false;
  std::ostringstream json;
  json << "{\n  \"overlay\": \"star, core + " << kEdges
       << " edges, advertisement routing, LEES\",\n  \"scenarios\": [\n";

  const std::pair<std::string, StarWorkload> workloads[] = {{"game", make_game_workload()},
                                                            {"hft", make_hft_workload()}};
  for (const auto& [name, w] : workloads) {
    const RunStats off = run(w, false);
    const RunStats on = run(w, true);

    print_banner(name + " workload (" + std::to_string(w.subs.size()) + " subscriptions, " +
                 std::to_string(w.unsubs.size()) + " coverers removed mid-run)");
    Table t{{"metric", "covering off", "covering on"}};
    t.add_row({"subscription msgs", std::to_string(off.subscription_msgs),
               std::to_string(on.subscription_msgs)});
    t.add_row({"matcher population", std::to_string(off.matcher_population),
               std::to_string(on.matcher_population)});
    t.add_row({"deduped installs", std::to_string(off.deduped_installs),
               std::to_string(on.deduped_installs)});
    t.add_row({"deliveries", std::to_string(off.deliveries), std::to_string(on.deliveries)});
    t.add_row({"suppressed forwards", "-", std::to_string(on.suppressed)});
    t.add_row({"demote unsubscribes", "-", std::to_string(on.demote_unsubscribes)});
    t.add_row({"resubscribes", "-", std::to_string(on.resubscribes)});
    t.add_row({"covering pairs (covered)", "-",
               std::to_string(on.pairs.pairs) + " (" + std::to_string(on.pairs.covered) + ")"});
    t.print();
    std::cout << "dissemination reduction: " << Table::fmt(reduction_pct(off, on), 1) << "%\n";

    if (off.fingerprint != on.fingerprint) {
      std::cerr << "ERROR: deliveries diverge between covering off/on in " << name << "\n";
      diverged = true;
    }

    json_scenario(json, name, off, on);
    json << ",\n";
  }

  // The sweep's rotated moving-centre workload: three configurations isolate
  // what the relational refinement buys on top of per-attribute covering.
  {
    const std::string name = "game_rotated";
    const StarWorkload w = make_rotated(kRotatedSeed, kRotatedClusters);
    const RunStats off = run(w, false);
    const RunStats per_attr = run(w, true, /*relational_on=*/false);
    const RunStats rel = run(w, true, /*relational_on=*/true);

    print_banner(name + " workload (" + std::to_string(w.subs.size()) + " subscriptions, " +
                 std::to_string(kRotatedClusters) + " clusters, seed " +
                 std::to_string(kRotatedSeed) + ", core + " + std::to_string(w.edges) +
                 " edges)");
    Table t{{"metric", "covering off", "on, per-attr", "on, relational"}};
    t.add_row({"subscription msgs", std::to_string(off.subscription_msgs),
               std::to_string(per_attr.subscription_msgs), std::to_string(rel.subscription_msgs)});
    t.add_row({"matcher population", std::to_string(off.matcher_population),
               std::to_string(per_attr.matcher_population), std::to_string(rel.matcher_population)});
    t.add_row({"deliveries", std::to_string(off.deliveries), std::to_string(per_attr.deliveries),
               std::to_string(rel.deliveries)});
    t.add_row({"suppressed forwards", "-", std::to_string(per_attr.suppressed),
               std::to_string(rel.suppressed)});
    t.add_row({"covering pairs (covered)", "-",
               std::to_string(per_attr.pairs.pairs) + " (" +
                   std::to_string(per_attr.pairs.covered) + ")",
               std::to_string(rel.pairs.pairs) + " (" + std::to_string(rel.pairs.covered) + ")"});
    t.add_row({"relational proofs", "-", std::to_string(per_attr.pairs.relational),
               std::to_string(rel.pairs.relational)});
    t.print();
    std::cout << "dissemination reduction vs off: " << Table::fmt(reduction_pct(off, rel), 1)
              << "%  (relational vs per-attr: " << Table::fmt(reduction_pct(per_attr, rel), 1)
              << "%)\n";

    if (off.fingerprint != per_attr.fingerprint || off.fingerprint != rel.fingerprint) {
      std::cerr << "ERROR: deliveries diverge across configurations in " << name << "\n";
      diverged = true;
    }
    // The workload exists to exercise the octagon: the relational run must
    // actually prove coverings the per-attribute run cannot.
    if (rel.pairs.relational == 0 || rel.suppressed <= per_attr.suppressed ||
        rel.subscription_msgs >= per_attr.subscription_msgs) {
      std::cerr << "ERROR: relational covering produced no routing benefit in " << name << "\n";
      diverged = true;
    }
    if (per_attr.pairs.relational != 0) {
      std::cerr << "ERROR: relational-off run reported relational proofs in " << name << "\n";
      diverged = true;
    }

    json_rotated(json, name, w, off, per_attr, rel);
    json << "\n";
  }
  json << "  ]\n}";

  // BENCH_routing.json is shared with the overlay_batch bench: each bench
  // owns one top-level section and preserves the other's.
  if (!write_json_section(out_path, "routing_covering", json.str())) {
    std::cerr << "ERROR: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << out_path << " (section routing_covering)\n";
  return diverged ? 1 : 0;
}
