// Per-broker link-batching counters (DESIGN.md §14).
//
// Header-only for the same reason as shard_counters.hpp: the counters are
// embedded in Broker's LinkBatcher (src/broker), which evps_metrics links
// against — a .cpp here would close a library cycle. The overlay-wide
// aggregation and report formatter live in traffic.cpp (harness-side code).
#pragma once

#include <cstdint>

#include "stats/online_stats.hpp"

namespace evps {

/// What one broker's LinkBatcher put on the wire. The central invariant:
/// `events` counts publications carried (invariant under batching), while
/// `messages()` counts envelopes actually sent — the batching win is the gap
/// between the two.
struct LinkBatchCounters {
  std::uint64_t batch_messages = 0;    ///< PublishBatchMsg/DeliveryBatchMsg sent
  std::uint64_t single_messages = 0;   ///< scalar PublishMsg/DeliveryMsg sent
  std::uint64_t events = 0;            ///< publications carried across all of them
  std::uint64_t size_flushes = 0;      ///< flushes triggered by link_batch_size
  std::uint64_t deadline_flushes = 0;  ///< flushes triggered by link_flush_deadline
  std::uint64_t barrier_flushes = 0;   ///< flushes forced by an unbatchable send
  std::uint64_t bytes = 0;             ///< codec bytes (only when measure_link_bytes)
  /// Events per flushed batch message (scalar sends are not recorded: the
  /// moments answer "how full are the batches we do form").
  OnlineStats fill;

  [[nodiscard]] std::uint64_t messages() const noexcept {
    return batch_messages + single_messages;
  }

  /// Mean publications per overlay message — the amortisation factor.
  [[nodiscard]] double events_per_message() const noexcept {
    const auto msgs = messages();
    return msgs == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(msgs);
  }

  void merge(const LinkBatchCounters& other) {
    batch_messages += other.batch_messages;
    single_messages += other.single_messages;
    events += other.events;
    size_flushes += other.size_flushes;
    deadline_flushes += other.deadline_flushes;
    barrier_flushes += other.barrier_flushes;
    bytes += other.bytes;
    fill.combine(other.fill);
  }

  void reset() { *this = LinkBatchCounters{}; }
};

}  // namespace evps
