// Monte-Carlo capacity-planning sweep: many independently seeded replicas of
// one scenario, run in parallel, aggregated into distributions with
// confidence intervals.
//
// A *replica* is one complete simulated deployment — the scenario workload
// plus its centralised zero-latency ground-truth twin built from the same
// seed — reduced to a handful of scalar metrics (latency mean/p50/p90/p99
// via a per-replica Greenwald–Khanna sketch, delivered-event accuracy
// against the twin, overlay traffic, subscription control traffic) and a
// delivery-log fingerprint. Replica metrics are a pure function of
// (scenario options, seed): each replica owns its Simulator, Overlay and
// RNGs, worker threads only ever write their own results slot, and the
// aggregation is a sequential fold in replica-index order — so a sweep is
// bit-identical for any worker count and across repeated runs, which
// tests/test_sweep_determinism.cpp pins.
//
// Replica seeds are derived from the root seed with a splitmix64 finalizer
// over an affine index stream; the map index -> seed is injective, so no two
// replicas of a sweep can collide (tests/test_seed_hygiene.cpp checks 10k).
//
// Aggregation uses the independent-replications method: each metric's
// replica values form an i.i.d. sample, summarised by exact quantiles (the
// replica vector is small enough to sort) and a batch-means 95 % CI
// (stats/confidence.hpp). The GK sketch is only used *within* one replica,
// where its tight single-stream rank bound applies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/online_stats.hpp"
#include "workloads/game.hpp"
#include "workloads/hft.hpp"
#include "workloads/system_kind.hpp"

namespace evps {

/// Seed of replica `index` under root seed `root`. Injective in `index` for
/// any fixed root (affine stream through a bijective mixer), so a sweep
/// never runs two replicas with the same seed.
[[nodiscard]] std::uint64_t derive_replica_seed(std::uint64_t root, std::size_t index) noexcept;

enum class SweepScenario {
  kGame,         ///< single-broker MMOG workload (workloads/game.hpp)
  kHft,          ///< 13-broker HFT tree (workloads/hft.hpp)
  kGameRotated,  ///< star overlay, rotated-coordinate moving zones (workloads/star.hpp)
};

[[nodiscard]] constexpr const char* to_string(SweepScenario s) noexcept {
  switch (s) {
    case SweepScenario::kGame: return "game";
    case SweepScenario::kHft: return "hft";
    case SweepScenario::kGameRotated: return "game_rotated";
  }
  return "?";
}

[[nodiscard]] std::optional<SweepScenario> parse_sweep_scenario(std::string_view name) noexcept;

/// Largest scaled population (characters, clients, stocks or clusters) a
/// sweep accepts: far above any useful replica, far below a failing allocation.
inline constexpr double kMaxScaledPopulation = 1e6;

/// True when `scale` is positive and no scaled population exceeds
/// kMaxScaledPopulation.
[[nodiscard]] bool valid_scale(double scale) noexcept;

struct SweepOptions {
  SweepScenario scenario = SweepScenario::kGame;
  std::size_t replicas = 200;
  std::uint64_t root_seed = 1;
  /// Total concurrency: 1 runs every replica inline on the caller; W > 1
  /// uses a ThreadPool with W - 1 workers plus the caller.
  std::size_t workers = 1;

  // Engine / broker matrix.
  SystemKind system = SystemKind::kLees;
  MatcherKind matcher = MatcherKind::kCounting;
  /// HFT inter-broker routing (game has one broker; game_rotated always
  /// routes by advertisement because covering needs it).
  RoutingMode routing = RoutingMode::kFlooding;
  std::size_t matcher_threads = 0;
  /// Per-link batching. 0 is resolved to 1 by run_sweep() so results never
  /// depend on the EVPS_LINK_BATCH environment override.
  std::size_t link_batch_size = 0;

  /// Multiplies the scenario's population (characters / clients / clusters);
  /// see valid_scale().
  double scale = 1.0;
  /// Rank-error fraction of the per-replica latency sketch.
  double latency_eps = 0.005;
};

/// Everything one replica reduces to. Bit-identical for equal
/// (options, seed) regardless of which thread ran it.
struct ReplicaMetrics {
  std::uint64_t seed = 0;

  std::uint64_t deliveries = 0;
  std::uint64_t truth_deliveries = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  /// 1 - (fp + fn) / truth, floored at 0 (metrics/accuracy.hpp).
  double accuracy = 1.0;

  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_rejected = 0;

  /// Total overlay messages (links between nodes, control + data).
  std::uint64_t overlay_msgs = 0;
  double msgs_per_delivery = 0.0;
  /// Subscription-related messages received across brokers.
  std::uint64_t subscription_msgs = 0;

  /// FNV-1a over every client's delivery records in client order — the
  /// bit-determinism witness the tests compare.
  std::uint64_t fingerprint = 0;

  bool operator==(const ReplicaMetrics&) const = default;
};

/// Cross-replica view of one scalar metric: moments, batch-means 95 % CI and
/// exact (sorted) quantiles over the replica values.
struct MetricSummary {
  OnlineStats stats;
  ConfidenceInterval ci;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Summarise `values` (replica-index order): fold moments, batch-means CI,
/// exact nearest-rank quantiles.
[[nodiscard]] MetricSummary summarize_metric(std::span<const double> values);

struct SweepResult {
  SweepOptions options;
  std::vector<ReplicaMetrics> replicas;

  MetricSummary latency_mean;
  MetricSummary latency_p99;
  MetricSummary accuracy;
  MetricSummary deliveries;
  MetricSummary overlay_msgs;
  MetricSummary msgs_per_delivery;
  MetricSummary subscription_msgs;
};

/// Run one replica of `options.scenario` with `seed`: the scenario run plus
/// its ground-truth twin, reduced to ReplicaMetrics. Thread-safe and
/// deterministic in (options, seed).
[[nodiscard]] ReplicaMetrics run_replica(const SweepOptions& options, std::uint64_t seed);

/// Run the full sweep. Replica 0 runs inline first (interning the complete
/// attribute/variable universe in a fixed order before worker threads
/// start); the rest are distributed over the pool. Aggregates are folded in
/// replica-index order, so the result is bit-identical for any worker count.
[[nodiscard]] SweepResult run_sweep(const SweepOptions& options);

}  // namespace evps
