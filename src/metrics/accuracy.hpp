// Delivery accuracy: false positives / false negatives vs. ground truth
// (Section VI-A2).
//
// The ground truth is the delivery log produced by a *centralised,
// instantaneous* run of the same deterministic workload: a single broker,
// zero-latency links, and lazily-evaluated evolving subscriptions — i.e. the
// intended interest function of every subscriber evaluated at the exact
// instant each publication enters the system (Section V-D's consistency
// ideal). Any publication a subscriber received but the truth does not
// contain is a false positive; any truth publication not received is a
// false negative.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "broker/overlay.hpp"
#include "common/ids.hpp"

namespace evps {

/// Per-client sets of delivered publication ids.
struct DeliveryLog {
  std::map<ClientId, std::set<MessageId>> delivered;

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [client, pubs] : delivered) n += pubs.size();
    return n;
  }
};

/// Extract the delivery log from all clients of an overlay. Clients with no
/// deliveries get no entry (harmless for comparison).
[[nodiscard]] DeliveryLog collect_delivery_log(const Overlay& overlay);

/// FNV-1a over every client's delivery records in client order: client
/// name, delivery instant and serialized publication. Equal fingerprints
/// mean the same publications reached the same clients at the same instants
/// in the same order — the bit-identity witness of the sweep determinism
/// suites and of the overlay benches' self-checks.
[[nodiscard]] std::uint64_t delivery_fingerprint(const Overlay& overlay);

struct AccuracyResult {
  std::uint64_t truth_deliveries = 0;
  std::uint64_t actual_deliveries = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;

  /// Combined FP+FN count — the paper groups them as a single item.
  [[nodiscard]] std::uint64_t errors() const noexcept {
    return false_positives + false_negatives;
  }

  /// Errors normalised by the ground-truth volume.
  [[nodiscard]] double error_rate() const noexcept {
    return truth_deliveries == 0 ? 0.0
                                 : static_cast<double>(errors()) /
                                       static_cast<double>(truth_deliveries);
  }

  /// Delivery accuracy in [0, 1]: 1 - error_rate, floored at 0.
  [[nodiscard]] double accuracy() const noexcept {
    const double a = 1.0 - error_rate();
    return a < 0.0 ? 0.0 : a;
  }
};

[[nodiscard]] AccuracyResult compare_logs(const DeliveryLog& truth, const DeliveryLog& actual);

}  // namespace evps
