#include "metrics/accuracy.hpp"

#include <algorithm>
#include <string>

#include "message/codec.hpp"

namespace evps {

DeliveryLog collect_delivery_log(const Overlay& overlay) {
  DeliveryLog log;
  for (const auto& client : overlay.clients()) {
    if (client->deliveries().empty()) continue;
    auto& set = log.delivered[client->id()];
    for (const auto& d : client->deliveries()) set.insert(d.pub.id());
  }
  return log;
}

std::uint64_t delivery_fingerprint(const Overlay& overlay) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  for (const auto& client : overlay.clients()) {
    for (const auto& d : client->deliveries()) {
      mix(client->name());
      mix("@");
      mix(std::to_string(d.when.micros()));
      mix(":");
      mix(serialize(d.pub));
    }
  }
  return h;
}

AccuracyResult compare_logs(const DeliveryLog& truth, const DeliveryLog& actual) {
  AccuracyResult result;
  result.truth_deliveries = truth.total();
  result.actual_deliveries = actual.total();

  // False negatives: in truth, not delivered.
  for (const auto& [client, truth_pubs] : truth.delivered) {
    const auto it = actual.delivered.find(client);
    if (it == actual.delivered.end()) {
      result.false_negatives += truth_pubs.size();
      continue;
    }
    for (const auto pub : truth_pubs) {
      if (!it->second.contains(pub)) ++result.false_negatives;
    }
  }
  // False positives: delivered, not in truth.
  for (const auto& [client, actual_pubs] : actual.delivered) {
    const auto it = truth.delivered.find(client);
    if (it == truth.delivered.end()) {
      result.false_positives += actual_pubs.size();
      continue;
    }
    for (const auto pub : actual_pubs) {
      if (!it->second.contains(pub)) ++result.false_positives;
    }
  }
  return result;
}

}  // namespace evps
