// End-to-end link batching: overlay messages per delivered event and entry
// pub rate vs BrokerConfig::link_batch_size (DESIGN.md §14).
//
// Two bursty workloads run on an advertisement-mode star overlay (core + 4
// edge brokers, LEES engines):
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
//   1. client delivery logs at every batch size are bit-identical to the
//      link_batch_size=1 baseline (same pubs, same timestamps, same order);
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
#include <vector>

#include "broker/overlay.hpp"
#include "common/rng.hpp"
#include "message/codec.hpp"
#include "metrics/report.hpp"
#include "metrics/traffic.hpp"

namespace {

using namespace evps;

constexpr int kEdges = 4;
constexpr int kSubsPerEdge = 6;
constexpr int kTicks = 40;
constexpr int kBurst = 96;  // publications per tick, all in one virtual instant

struct Workload {
  std::string name;
  std::string adv;
  std::vector<std::string> subs;  // edge-ordered: kSubsPerEdge per edge
  std::vector<std::string> pubs;  // kTicks bursts of kBurst, concatenated
};

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Wide clustered game zones: every edge watches a pile of big boxes, so a
/// map-wide burst matches a healthy slice of every edge's interest.
Workload make_game_workload() {
  Workload w;
  w.name = "game";
  w.adv = "x >= 0; x <= 1000; y >= 0; y <= 1000";
  Rng rng{515};
  for (int e = 0; e < kEdges; ++e) {
    for (int s = 0; s < kSubsPerEdge; ++s) {
      const double cx = rng.uniform(150.0, 850.0);
      const double cy = rng.uniform(150.0, 850.0);
      const double r = rng.uniform(100.0, 300.0);
      if (rng.bernoulli(0.25)) {
        // Evolving zone: the x reach scales with gz_load in [0, 1].
        w.subs.push_back("[tt=0.5] x >= " + fmt_num(cx - r) + "; x <= " + fmt_num(cx) + " + " +
                         fmt_num(r) + " * gz_load; y >= " + fmt_num(cy - r) + "; y <= " +
                         fmt_num(cy + r));
      } else {
        w.subs.push_back("x >= " + fmt_num(cx - r) + "; x <= " + fmt_num(cx + r) + "; y >= " +
                         fmt_num(cy - r) + "; y <= " + fmt_num(cy + r));
      }
    }
  }
  for (int t = 0; t < kTicks; ++t) {
    for (int p = 0; p < kBurst; ++p) {
      w.pubs.push_back("x = " + fmt_num(rng.uniform(0.0, 1000.0)) +
                       "; y = " + fmt_num(rng.uniform(0.0, 1000.0)));
    }
  }
  return w;
}

/// HFT price bands: wide desk bands (a few volatility-scaled) against
/// book-wide quote bursts.
Workload make_hft_workload() {
  Workload w;
  w.name = "hft";
  w.adv = "price >= 0; price <= 1000";
  Rng rng{99};
  for (int e = 0; e < kEdges; ++e) {
    for (int s = 0; s < kSubsPerEdge; ++s) {
      const double base = rng.uniform(100.0, 900.0);
      if (rng.bernoulli(0.25)) {
        // Volatility-scaled band: reach grows with hf_vix in [0, 1].
        w.subs.push_back("[tt=0.5] price >= " + fmt_num(base - 120) + "; price <= " +
                         fmt_num(base) + " + 120 * hf_vix");
      } else {
        const double r = rng.uniform(60.0, 180.0);
        w.subs.push_back("price >= " + fmt_num(base - r) + "; price <= " + fmt_num(base + r));
      }
    }
  }
  for (int t = 0; t < kTicks; ++t) {
    for (int p = 0; p < kBurst; ++p) {
      w.pubs.push_back("price = " + fmt_num(rng.uniform(0.0, 1000.0)));
    }
  }
  return w;
}

struct RunStats {
  LinkBatchCounters counters;
  std::uint64_t deliveries = 0;
  double wall_seconds = 0;
  double pubs_per_sec = 0;
  std::vector<std::string> delivery_log;
};

RunStats run(const Workload& w, std::size_t link_batch) {
  Simulator sim;
  Overlay overlay{sim};
  BrokerConfig cfg;
  cfg.engine.kind = EngineKind::kLees;
  cfg.routing = RoutingMode::kAdvertisement;
  // Zero flush deadline: the equivalence-preserving policy.
  cfg.link_batch_size = link_batch;
  cfg.measure_link_bytes = true;
  auto brokers = overlay.build_star(kEdges, cfg, Duration::millis(5));
  for (auto* b : brokers) {
    b->variables().declare_range("gz_load", 0.0, 1.0);
    b->variables().declare_range("hf_vix", 0.0, 1.0);
  }
  brokers[0]->set_variable("gz_load", 0.5);
  brokers[0]->set_variable("hf_vix", 0.4);

  PubSubClient& publisher = overlay.add_client("pub");
  publisher.connect(*brokers[1], Duration::millis(1));

  std::vector<PubSubClient*> subscribers;
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    PubSubClient& c = overlay.add_client("sub" + std::to_string(i));
    c.connect(*brokers[1 + (i / kSubsPerEdge) % kEdges], Duration::millis(1));
    subscribers.push_back(&c);
  }

  sim.after(Duration::zero(),
            [&] { publisher.advertise(parse_subscription(w.adv).predicates()); });
  for (std::size_t i = 0; i < w.subs.size(); ++i) {
    sim.after(Duration::seconds(1.0 + 0.01 * static_cast<double>(i)),
              [&, i] { subscribers[i]->subscribe(w.subs[i]); });
  }
  // The burst schedule: kBurst publications per tick, issued in one callback
  // so they share a virtual instant end-to-end.
  for (int t = 0; t < kTicks; ++t) {
    sim.after(Duration::seconds(3.0 + 0.01 * t), [&, t] {
      for (int p = 0; p < kBurst; ++p) {
        publisher.publish(w.pubs[static_cast<std::size_t>(t) * kBurst + p]);
      }
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sim.run_until(SimTime::from_seconds(10.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;

  RunStats r;
  r.counters = aggregate_link_counters(overlay);
  r.wall_seconds = wall.count();
  r.pubs_per_sec =
      r.wall_seconds <= 0 ? 0.0 : static_cast<double>(w.pubs.size()) / r.wall_seconds;
  for (const PubSubClient* c : subscribers) {
    r.deliveries += c->deliveries().size();
    for (const auto& d : c->deliveries()) {
      r.delivery_log.push_back(c->name() + "@" + std::to_string(d.when.micros()) + ":" +
                               serialize(d.pub));
    }
  }
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

  const Workload workloads[] = {make_game_workload(), make_hft_workload()};
  for (std::size_t wi = 0; wi < 2; ++wi) {
    const Workload& w = workloads[wi];
    print_banner(w.name + " workload (" + std::to_string(w.subs.size()) + " subscriptions, " +
                 std::to_string(w.pubs.size()) + " publications)");

    std::vector<RunStats> runs;
    for (const std::size_t b : sweep) runs.push_back(run(w, b));
    const RunStats& base = runs.front();

    Table t{{"link_batch", "messages", "events", "events/msg", "bytes", "pubs/s"}};
    json << "    {\"name\":\"" << w.name << "\",\"series\":[\n";
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

      if (r.delivery_log != base.delivery_log) {
        std::cerr << "ERROR: " << w.name << " deliveries diverge at link_batch=" << sweep[i]
                  << " (baseline " << base.delivery_log.size() << " entries, got "
                  << r.delivery_log.size() << ")\n";
        failed = true;
      }
      if (r.counters.events != base.counters.events) {
        std::cerr << "ERROR: " << w.name << " events not invariant at link_batch=" << sweep[i]
                  << ": " << r.counters.events << " != " << base.counters.events << "\n";
        failed = true;
      }
      if (sweep[i] == 64 && r.counters.events_per_message() < 5.0) {
        std::cerr << "ERROR: " << w.name << " amortisation at link_batch=64 below 5x: "
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
