#include "metrics/latency.hpp"

namespace evps {

OnlineStats collect_delivery_latency(const Overlay& overlay) {
  OnlineStats summary;
  for (const auto& client : overlay.clients()) {
    for (const auto& d : client->deliveries()) {
      summary.add((d.when - d.pub.entry_time()).count_seconds());
    }
  }
  return summary;
}

std::map<ClientId, OnlineStats> collect_delivery_latency_per_client(const Overlay& overlay) {
  std::map<ClientId, OnlineStats> out;
  for (const auto& client : overlay.clients()) {
    if (client->deliveries().empty()) continue;
    auto& summary = out[client->id()];
    for (const auto& d : client->deliveries()) {
      summary.add((d.when - d.pub.entry_time()).count_seconds());
    }
  }
  return out;
}

}  // namespace evps
