// Per-broker counters for covering-based subscription routing (see
// analysis/covering_index.hpp and BrokerConfig::covering). Pair-analysis
// counts (pairs / covered / unknown) live in the CoveringIndex's CoverStats;
// this struct tracks the message-traffic consequences the broker observed.
//
// Header-only and dependency-free on purpose: the broker includes this
// without linking evps_metrics (which itself links the broker).
#pragma once

#include <cstdint>

namespace evps {

struct CoveringCounters {
  /// Subscribe forwards suppressed because a covering root already reaches
  /// the target neighbour (the paper metric: dissemination messages saved).
  std::uint64_t suppressed_forwards = 0;
  /// Unsubscribes sent to retract a former root that a newly arrived
  /// subscription now covers.
  std::uint64_t demote_unsubscribes = 0;
  /// Re-dissemination subscribes sent when a coverer's removal or update
  /// promoted covered subscriptions back to roots (uncover-on-remove), or
  /// when an updated subscription re-attached under a different root whose
  /// reach misses directions the old root served.
  std::uint64_t resubscribes = 0;

  void reset() noexcept { *this = CoveringCounters{}; }
};

}  // namespace evps
