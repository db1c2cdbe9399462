// Micro-benchmarks: the standard content-based matcher.
//
// Two costs matter for the paper's analysis: match() (paid per publication
// by every engine) and rebound() (paid per version replacement by VES and
// the LEES filter — the maintenance cost that grows with the matcher
// population, Figure 9).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "gbench_main.hpp"
#include "matching/brute_force_matcher.hpp"
#include "matching/counting_matcher.hpp"
#include "matching/sharded_matcher.hpp"

namespace {

using namespace evps;

std::vector<Predicate> aoi_preds(Rng& rng, double world) {
  const double x = rng.uniform(-world, world);
  const double y = rng.uniform(-world, world);
  return {
      Predicate{"x", RelOp::kGe, Value{x - 3}},
      Predicate{"x", RelOp::kLe, Value{x + 3}},
      Predicate{"y", RelOp::kGe, Value{y - 2}},
      Predicate{"y", RelOp::kLe, Value{y + 2}},
  };
}

void fill(Matcher& m, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    m.add(SubscriptionId{i + 1}, aoi_preds(rng, 100.0));
  }
}

template <typename M>
void BM_Match(benchmark::State& state) {
  M matcher;
  Rng rng{1};
  fill(matcher, static_cast<std::size_t>(state.range(0)), rng);
  std::vector<SubscriptionId> out;
  for (auto _ : state) {
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    out.clear();
    matcher.match(pub, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_Match<CountingMatcher>)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Match<BruteForceMatcher>)->Arg(100)->Arg(1000)->Arg(10000);

/// Two versions of one area of interest whose four bounds all move a little
/// — the shape of a VES evolution.
std::vector<std::vector<Predicate>> drifting_versions(Rng& rng) {
  std::vector<Predicate> from = aoi_preds(rng, 100.0);
  std::vector<Predicate> to;
  for (const auto& p : from) to.emplace_back(p.attribute(), p.op(), *p.constant().numeric() + 0.1);
  return {std::move(from), std::move(to)};
}

/// Rebound one subscription between its two drifting versions while the
/// matcher holds `n` others: the VES maintenance operation. Across the
/// Figure 9 growth axis (100 -> 1M) the paged bound indexes must keep the
/// per-op cost sublinear (about O(log n)).
void BM_VersionReplacement(benchmark::State& state) {
  CountingMatcher matcher;
  Rng rng{2};
  const auto n = static_cast<std::size_t>(state.range(0));
  fill(matcher, n, rng);
  const SubscriptionId victim{n / 2 + 1};
  const auto versions = drifting_versions(rng);
  std::size_t turn = 0;
  for (auto _ : state) matcher.rebound(victim, versions[++turn & 1]);
  benchmark::DoNotOptimize(matcher.size());
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_VersionReplacement)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_EqualityHeavyMatch(benchmark::State& state) {
  // HFT-style: string equality fan-out over 500 symbols plus price bands.
  CountingMatcher matcher;
  Rng rng{3};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.uniform(10.0, 500.0);
    matcher.add(SubscriptionId{i + 1},
                {Predicate{"symbol", RelOp::kEq,
                           Value{"STK" + std::to_string(i % 500)}},
                 Predicate{"price", RelOp::kGe, Value{c - 0.25}},
                 Predicate{"price", RelOp::kLe, Value{c + 0.25}}});
  }
  std::vector<SubscriptionId> out;
  for (auto _ : state) {
    Publication pub;
    pub.set("symbol", "STK" + std::to_string(rng.uniform_int(0, 499)));
    pub.set("price", rng.uniform(10.0, 500.0));
    out.clear();
    matcher.match(pub, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_EqualityHeavyMatch)->Arg(900)->Arg(9000);

void BM_LargePopulationMatch(benchmark::State& state) {
  // Millions-of-subscribers direction: 100k resident AOI subscriptions
  // (400k indexed predicates). The matcher is built once and shared across
  // repetitions — at this population the sorted-index build is the dominant
  // setup cost, not something to re-pay per timing run.
  static CountingMatcher* matcher = [] {
    auto* m = new CountingMatcher;
    Rng fill_rng{11};
    fill(*m, 100000, fill_rng);
    return m;
  }();
  Rng rng{12};
  std::vector<SubscriptionId> out;
  for (auto _ : state) {
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    out.clear();
    matcher->match(pub, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_LargePopulationMatch);

void BM_ReboundWave(benchmark::State& state) {
  // Args: {population, wave}. One VES evolution wave: `wave` subscriptions
  // (a contiguous id block mid-population) each rebound to their next
  // version; items processed = versions, so the per-version cost compares
  // with BM_VersionReplacement's.
  CountingMatcher matcher;
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto wave = static_cast<std::size_t>(state.range(1));
  fill(matcher, n, rng);
  const std::uint64_t first = n / 4 + 1;
  std::vector<std::vector<std::vector<Predicate>>> versions;
  versions.reserve(wave);
  for (std::size_t i = 0; i < wave; ++i) versions.push_back(drifting_versions(rng));
  std::size_t turn = 0;
  for (auto _ : state) {
    ++turn;
    for (std::size_t i = 0; i < wave; ++i) {
      matcher.rebound(SubscriptionId{first + i}, versions[i][turn & 1]);
    }
  }
  benchmark::DoNotOptimize(matcher.size());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(wave));
}
BENCHMARK(BM_ReboundWave)->Args({10000, 1000})->Args({100000, 1000})->Args({100000, 10000});

void BM_ShardedMatch(benchmark::State& state) {
  // Args: {subscriptions, shards}. K=1 is the exact unsharded code path, so
  // the K sweep isolates the fork-join + merge overhead against the
  // parallel-section win (which needs as many free cores as shards).
  ShardedMatcher matcher{MatcherKind::kCounting, static_cast<std::size_t>(state.range(1))};
  Rng rng{4};
  fill(matcher, static_cast<std::size_t>(state.range(0)), rng);
  std::vector<SubscriptionId> out;
  for (auto _ : state) {
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    out.clear();
    matcher.match(pub, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_ShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});

void BM_ShardedMatchBatch(benchmark::State& state) {
  // Args: {subscriptions, shards, batch size}. One fork/join per batch
  // instead of per publication; items processed = publications, so per-pub
  // cost is comparable across batch sizes.
  ShardedMatcher matcher{MatcherKind::kCounting, static_cast<std::size_t>(state.range(1))};
  Rng rng{5};
  fill(matcher, static_cast<std::size_t>(state.range(0)), rng);
  const auto batch = static_cast<std::size_t>(state.range(2));
  std::vector<Publication> pubs(batch);
  std::vector<std::vector<SubscriptionId>> out;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& pub : pubs) {
      pub = Publication{};
      pub.set("x", rng.uniform(-100.0, 100.0));
      pub.set("y", rng.uniform(-100.0, 100.0));
    }
    state.ResumeTiming();
    matcher.match_batch(pubs, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ShardedMatchBatch)
    ->Args({10000, 1, 8})
    ->Args({10000, 4, 1})
    ->Args({10000, 4, 8})
    ->Args({10000, 4, 32})
    ->Args({10000, 8, 32});

}  // namespace

int main(int argc, char** argv) { return evps_bench::run(argc, argv, "BENCH_matcher.json"); }
