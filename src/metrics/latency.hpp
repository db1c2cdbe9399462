// End-to-end delivery latency: time from a publication's entry into the
// system (entry-point broker) until each client delivery. Complements the
// accuracy metric — the baselines' inaccuracy in Figure 7 is caused by
// exactly this propagation delay.
#pragma once

#include <map>

#include "broker/overlay.hpp"
#include "stats/online_stats.hpp"

namespace evps {

/// Latency summary over every delivery recorded by the overlay's clients.
[[nodiscard]] OnlineStats collect_delivery_latency(const Overlay& overlay);

/// Per-client latency summaries (clients without deliveries are omitted).
[[nodiscard]] std::map<ClientId, OnlineStats> collect_delivery_latency_per_client(
    const Overlay& overlay);

}  // namespace evps
