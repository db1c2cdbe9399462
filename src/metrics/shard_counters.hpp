// Per-shard matcher occupancy and batch-publication counters.
//
// Header-only on purpose: the counters are embedded in BrokerEngine
// (src/evolving), which evps_metrics itself links against through
// evps_broker — a .cpp here would close a library cycle. Only the report
// formatter lives in shard_counters.cpp (it is called from harness code, not
// from the engines).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/online_stats.hpp"

namespace evps {

/// Batch-matching accounting (BrokerEngine::match_batch).
struct BatchCounters {
  std::uint64_t batches = 0;               ///< match_batch calls
  std::uint64_t batched_publications = 0;  ///< publications across all batches
  std::uint64_t max_batch = 0;             ///< largest batch seen
  OnlineStats batch_seconds;               ///< wall time per batch

  void record(std::size_t batch_size, double seconds) noexcept {
    ++batches;
    batched_publications += batch_size;
    max_batch = std::max<std::uint64_t>(max_batch, batch_size);
    batch_seconds.add(seconds);
  }

  [[nodiscard]] double mean_batch() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_publications) / static_cast<double>(batches);
  }

  void reset() noexcept { *this = BatchCounters{}; }
};

/// Human-readable shard report: per-shard subscription occupancy plus batch
/// latency/size statistics. `occupancy` is BrokerEngine::shard_occupancy().
[[nodiscard]] std::string format_shard_report(const std::vector<std::size_t>& occupancy,
                                              const BatchCounters& batches);

}  // namespace evps
