// Micro-benchmarks: per-publication match cost and per-evolution maintenance
// cost of the three evolving engine designs.
#include <benchmark/benchmark.h>

#include "engine_bench.hpp"
#include "evolving/ves_engine.hpp"
#include "gbench_main.hpp"

namespace {

using namespace evps;
using namespace evps_bench;

/// The match benches' areas of interest. The one-hour MEI keeps VES
/// evolution out of the run; the mmog workload's 10 s validity sizes the
/// LEES filter windows (VES and CLEES ignore validity).
SubscriptionPtr aoi_subscription(std::uint64_t id, Rng& rng) {
  return random_aoi(id, rng, 100.0, Duration::seconds(3600), Duration::seconds(10));
}

/// Virtual time each match iteration advances.
constexpr std::int64_t kTickUs = 100;

/// LEES rows run a fixed iteration count: 5,000 ticks are 0.5 s of virtual
/// time, so every recorded LEES run stays inside the 10 s validity and its
/// filter windows, which a time-sized run of a fast case would outlast.
constexpr benchmark::IterationCount kLeesIterations = 5000;

/// Exact LEES probes per publication, recorded next to the time.
void count_probes(benchmark::State& state, const BrokerEngine& engine, EngineKind kind,
                  std::int64_t pubs_per_iteration) {
  if (kind != EngineKind::kLees) return;
  state.counters["probes_per_pub"] =
      static_cast<double>(engine.costs().lazy_evaluations) /
      static_cast<double>(state.iterations() * pubs_per_iteration);
}

void engine_match_bench(benchmark::State& state, EngineKind kind) {
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  const auto engine = make_engine(cfg);
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng), NodeId{i % 100}, host);
  }
  std::vector<NodeId> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_micros(tick += kTickUs));
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    dests.clear();
    engine->match(pub, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
  count_probes(state, *engine, kind, 1);
}

void BM_VesMatch(benchmark::State& state) { engine_match_bench(state, EngineKind::kVes); }
void BM_LeesMatch(benchmark::State& state) { engine_match_bench(state, EngineKind::kLees); }
void BM_CleesMatch(benchmark::State& state) { engine_match_bench(state, EngineKind::kClees); }
BENCHMARK(BM_VesMatch)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10000);
BENCHMARK(BM_LeesMatch)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Iterations(kLeesIterations);
BENCHMARK(BM_CleesMatch)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10000);

void engine_sharded_match_bench(benchmark::State& state, EngineKind kind) {
  // Args: {subscriptions, matcher shards}. Same workload as the plain match
  // bench; K=1 is bit-identical to it, higher K adds the fork/join (and, on
  // hosts with free cores, the parallel-section win).
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  cfg.matcher_threads = static_cast<std::size_t>(state.range(1));
  const auto engine = make_engine(cfg);
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng), NodeId{i % 100}, host);
  }
  std::vector<NodeId> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_micros(tick += kTickUs));
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    dests.clear();
    engine->match(pub, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
  count_probes(state, *engine, kind, 1);
}

void BM_VesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kVes);
}
void BM_LeesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kLees);
}
void BM_CleesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kClees);
}
BENCHMARK(BM_VesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});
BENCHMARK(BM_LeesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->Iterations(kLeesIterations);
BENCHMARK(BM_CleesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});

void engine_batch_match_bench(benchmark::State& state, EngineKind kind) {
  // Args: {subscriptions, matcher shards, batch size}. One engine-level
  // match_batch() per iteration; items processed = publications.
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  cfg.matcher_threads = static_cast<std::size_t>(state.range(1));
  const auto engine = make_engine(cfg);
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng), NodeId{i % 100}, host);
  }
  const auto batch = static_cast<std::size_t>(state.range(2));
  std::vector<Publication> pubs(batch);
  std::vector<std::vector<NodeId>> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    host.advance_to(SimTime::from_micros(tick += kTickUs));
    for (auto& pub : pubs) {
      pub = Publication{};
      pub.set("x", rng.uniform(-100.0, 100.0));
      pub.set("y", rng.uniform(-100.0, 100.0));
      pub.set_entry_time(host.now());
    }
    state.ResumeTiming();
    engine->match_batch(pubs, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
  count_probes(state, *engine, kind, static_cast<std::int64_t>(batch));
}

void BM_VesMatchBatch(benchmark::State& state) {
  engine_batch_match_bench(state, EngineKind::kVes);
}
void BM_LeesMatchBatch(benchmark::State& state) {
  engine_batch_match_bench(state, EngineKind::kLees);
}
BENCHMARK(BM_VesMatchBatch)
    ->Args({10000, 4, 1})
    ->Args({10000, 4, 8})
    ->Args({10000, 4, 32})
    ->Args({10000, 1, 8});
BENCHMARK(BM_LeesMatchBatch)
    ->Args({10000, 4, 1})
    ->Args({10000, 4, 8})
    ->Args({10000, 4, 32})
    ->Args({10000, 1, 8})
    ->Iterations(kLeesIterations);

void BM_VesEvolutionRound(benchmark::State& state) {
  // One full evolution round (every subscription re-materialised) with the
  // matcher holding `n` subscriptions — the Figure 9 maintenance cost.
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = EngineKind::kVes;
  VesEngine engine{cfg};
  Rng rng{9};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine.add(random_aoi(i + 1, rng, 100.0, Duration::seconds(1)), NodeId{i % 100}, host);
  }
  std::int64_t seconds = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_seconds(static_cast<double>(++seconds)));
    benchmark::DoNotOptimize(engine.costs().evolutions);
  }
  state.counters["evolutions"] = static_cast<double>(engine.costs().evolutions);
}
BENCHMARK(BM_VesEvolutionRound)->Arg(100)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return evps_bench::run(argc, argv, "BENCH_engines.json"); }
