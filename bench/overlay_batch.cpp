// End-to-end link batching: overlay messages per delivered event and entry
// pub rate vs BrokerConfig::link_batch_size (DESIGN.md §14).
//
// Two bursty workloads run on an advertisement-mode star overlay (core + 4
// edge brokers, LEES engines; workloads/star.hpp):
//
//   game — wide x/y interest zones clustered per edge (a few evolving,
//     load-scaled), publisher emitting position bursts across the map.
//   hft  — price bands per trading desk (a few volatility-scaled), publisher
//     emitting quote bursts across the book.
//
// The publisher emits its publications in per-tick bursts (many events in
// one virtual instant), the regime link batching targets: every overlay hop
// can pack a burst's worth of matched publications into one
// PublishBatchMsg/DeliveryBatchMsg, and each downstream broker matches an
// arriving batch with one engine match_batch call. Each workload runs at
// link_batch_size in {1, 8, 64, 256} and records
//
//   - events per overlay message (LinkBatchCounters: envelopes vs
//     publications carried),
//   - wire bytes (codec serialization of what was actually sent),
//   - wall-clock publications/second through the entry broker.
//
// Self-checking (the bench-smoke ctest entry doubles as a regression test);
// exits nonzero when any of these fail:
//   1. client deliveries at every batch size are bit-identical to the
//      link_batch_size=1 baseline (same pubs, same timestamps, same order:
//      equal delivery fingerprints);
//   2. events carried are invariant under batching;
//   3. link_batch_size=64 amortises >= 5 events per overlay message on both
//      workloads (the headline batching win).
//
// Results land in the "overlay_batch" section of BENCH_routing.json
// (argv[1] overrides the output path; the routing_covering section is
// preserved).
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/report.hpp"
#include "metrics/traffic.hpp"
#include "workloads/star.hpp"

namespace {

using namespace evps;

constexpr std::size_t kEdges = 4;
constexpr int kSubsPerEdge = 6;
constexpr int kTicks = 40;
constexpr int kBurst = 96;  // publications per tick, all in one virtual instant

/// The star both workloads share: core + kEdges edges, 1 ms client links,
/// one load-style variable in [0, 1].
StarWorkload batch_star(std::string adv, std::string var, double value) {
  StarWorkload w;
  w.edges = kEdges;
  w.client_latency = Duration::millis(1);
  w.adv = std::move(adv);
  w.vars.push_back({std::move(var), 0.0, 1.0, value});
  w.end = 10.0;
  return w;
}

/// The burst schedule: publication i goes out in tick i / kBurst, and a
/// tick's kBurst publications share one virtual instant end-to-end.
double burst_time(int i) { return 3.0 + 0.01 * static_cast<double>(i / kBurst); }

/// Wide clustered game zones: every edge watches a pile of big boxes, so a
/// map-wide burst matches a healthy slice of every edge's interest.
StarWorkload make_game_workload() {
  StarWorkload w = batch_star("x >= 0; x <= 1000; y >= 0; y <= 1000", "gz_load", 0.5);
  Rng rng{515};
  for (std::size_t e = 0; e < kEdges; ++e) {
    for (int s = 0; s < kSubsPerEdge; ++s) {
      const double cx = rng.uniform(150.0, 850.0);
      const double cy = rng.uniform(150.0, 850.0);
      const double r = rng.uniform(100.0, 300.0);
      const std::string y_range =
          "; y >= " + format_number(cy - r) + "; y <= " + format_number(cy + r);
      if (rng.bernoulli(0.25)) {
        // Evolving zone: the x reach scales with gz_load in [0, 1].
        w.subs.push_back({"[tt=0.5] x >= " + format_number(cx - r) + "; x <= " +
                              format_number(cx) + " + " + format_number(r) + " * gz_load" +
                              y_range,
                          e});
      } else {
        w.subs.push_back(
            {"x >= " + format_number(cx - r) + "; x <= " + format_number(cx + r) + y_range, e});
      }
    }
  }
  for (int i = 0; i < kTicks * kBurst; ++i) {
    w.pubs.push_back({burst_time(i), "x = " + format_number(rng.uniform(0.0, 1000.0)) +
                                         "; y = " + format_number(rng.uniform(0.0, 1000.0))});
  }
  return w;
}

/// HFT price bands: wide desk bands (a few volatility-scaled) against
/// book-wide quote bursts.
StarWorkload make_hft_workload() {
  StarWorkload w = batch_star("price >= 0; price <= 1000", "hf_vix", 0.4);
  Rng rng{99};
  for (std::size_t e = 0; e < kEdges; ++e) {
    for (int s = 0; s < kSubsPerEdge; ++s) {
      const double base = rng.uniform(100.0, 900.0);
      if (rng.bernoulli(0.25)) {
        // Volatility-scaled band: reach grows with hf_vix in [0, 1].
        w.subs.push_back({"[tt=0.5] price >= " + format_number(base - 120) + "; price <= " +
                              format_number(base) + " + 120 * hf_vix",
                          e});
      } else {
        const double r = rng.uniform(60.0, 180.0);
        w.subs.push_back(
            {"price >= " + format_number(base - r) + "; price <= " + format_number(base + r), e});
      }
    }
  }
  for (int i = 0; i < kTicks * kBurst; ++i) {
    w.pubs.push_back({burst_time(i), "price = " + format_number(rng.uniform(0.0, 1000.0))});
  }
  return w;
}

struct RunStats {
  LinkBatchCounters counters;
  std::uint64_t deliveries = 0;
  double wall_seconds = 0;
  double pubs_per_sec = 0;
  std::uint64_t fingerprint = 0;
};

RunStats run(const StarWorkload& w, std::size_t link_batch) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  // Zero flush deadline: the equivalence-preserving policy.
  cfg.link_batch_size = link_batch;
  cfg.measure_link_bytes = true;

  const auto wall_start = std::chrono::steady_clock::now();
  run_star(w, cfg, /*central=*/false, overlay);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;

  RunStats r;
  r.counters = aggregate_link_counters(overlay);
  r.wall_seconds = wall.count();
  r.pubs_per_sec =
      r.wall_seconds <= 0 ? 0.0 : static_cast<double>(w.pubs.size()) / r.wall_seconds;
  for (const auto& c : overlay.clients()) r.deliveries += c->deliveries().size();
  r.fingerprint = delivery_fingerprint(overlay);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_routing.json";
  const std::size_t sweep[] = {1, 8, 64, 256};
  std::cout << "Link batching: overlay messages per delivered event vs link_batch_size\n";

  bool failed = false;
  std::ostringstream json;
  json << "{\n  \"overlay\": \"star, core + " << kEdges
       << " edges, advertisement routing, LEES\",\n  \"bursts\": \"" << kTicks << " x " << kBurst
       << " pubs per virtual instant\",\n  \"workloads\": [\n";

  const std::pair<std::string, StarWorkload> workloads[] = {{"game", make_game_workload()},
                                                            {"hft", make_hft_workload()}};
  for (std::size_t wi = 0; wi < 2; ++wi) {
    const auto& [name, w] = workloads[wi];
    print_banner(name + " workload (" + std::to_string(w.subs.size()) + " subscriptions, " +
                 std::to_string(w.pubs.size()) + " publications)");

    std::vector<RunStats> runs;
    for (const std::size_t b : sweep) runs.push_back(run(w, b));
    const RunStats& base = runs.front();

    Table t{{"link_batch", "messages", "events", "events/msg", "bytes", "pubs/s"}};
    json << "    {\"name\":\"" << name << "\",\"series\":[\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunStats& r = runs[i];
      t.add_row({std::to_string(sweep[i]), std::to_string(r.counters.messages()),
                 std::to_string(r.counters.events),
                 Table::fmt(r.counters.events_per_message(), 2),
                 std::to_string(r.counters.bytes), Table::fmt(r.pubs_per_sec, 0)});
      json << "      {\"link_batch\":" << sweep[i] << ",\"messages\":" << r.counters.messages()
           << ",\"batch_messages\":" << r.counters.batch_messages
           << ",\"events\":" << r.counters.events
           << ",\"events_per_message\":" << Table::fmt(r.counters.events_per_message(), 3)
           << ",\"bytes\":" << r.counters.bytes << ",\"deliveries\":" << r.deliveries
           << ",\"pubs_per_sec\":" << Table::fmt(r.pubs_per_sec, 0)
           << ",\"wall_ms\":" << Table::fmt(r.wall_seconds * 1000.0, 1) << "}"
           << (i + 1 < runs.size() ? ",\n" : "\n");

      if (r.fingerprint != base.fingerprint) {
        std::cerr << "ERROR: " << name << " deliveries diverge at link_batch=" << sweep[i]
                  << " (baseline " << base.deliveries << " deliveries, got " << r.deliveries
                  << ")\n";
        failed = true;
      }
      if (r.counters.events != base.counters.events) {
        std::cerr << "ERROR: " << name << " events not invariant at link_batch=" << sweep[i]
                  << ": " << r.counters.events << " != " << base.counters.events << "\n";
        failed = true;
      }
      if (sweep[i] == 64 && r.counters.events_per_message() < 5.0) {
        std::cerr << "ERROR: " << name << " amortisation at link_batch=64 below 5x: "
                  << r.counters.events_per_message() << " events/message\n";
        failed = true;
      }
    }
    t.print();
    std::cout << format_link_report(runs[2].counters);
    json << "    ]}" << (wi == 0 ? ",\n" : "\n");
  }
  json << "  ]\n}";

  if (!write_json_section(out_path, "overlay_batch", json.str())) {
    std::cerr << "ERROR: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << out_path << " (section overlay_batch)\n";
  return failed ? 1 : 0;
}
