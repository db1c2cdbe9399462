#include "metrics/traffic.hpp"

#include <cstdio>

namespace evps {

LinkBatchCounters aggregate_link_counters(const Overlay& overlay) {
  LinkBatchCounters total;
  for (const auto& broker : overlay.brokers()) total.merge(broker->link_counters());
  return total;
}

std::string format_link_report(const LinkBatchCounters& c) {
  char line[256];
  std::string out = "link batching:\n";
  std::snprintf(line, sizeof(line),
                "  messages %llu (batch %llu, single %llu), events %llu, events/msg %.2f\n",
                static_cast<unsigned long long>(c.messages()),
                static_cast<unsigned long long>(c.batch_messages),
                static_cast<unsigned long long>(c.single_messages),
                static_cast<unsigned long long>(c.events), c.events_per_message());
  out += line;
  std::snprintf(line, sizeof(line),
                "  flushes: size %llu, deadline %llu, barrier %llu\n",
                static_cast<unsigned long long>(c.size_flushes),
                static_cast<unsigned long long>(c.deadline_flushes),
                static_cast<unsigned long long>(c.barrier_flushes));
  out += line;
  if (c.bytes != 0) {
    std::snprintf(line, sizeof(line), "  wire bytes %llu\n",
                  static_cast<unsigned long long>(c.bytes));
    out += line;
  }
  if (c.fill.count() != 0) {
    std::snprintf(line, sizeof(line), "  batch fill: mean %.1f, max %.0f\n", c.fill.mean(),
                  c.fill.max());
    out += line;
  }
  return out;
}

TrafficProbe::TrafficProbe(Overlay& overlay, Duration interval, SimTime until)
    : overlay_(overlay), interval_(interval) {
  if (interval <= Duration::zero()) throw std::invalid_argument("interval must be positive");
  auto& sim = overlay.simulator();
  sim.every(sim.now() + interval, interval, until + Duration::micros(1), [this](SimTime) {
    const std::uint64_t total = overlay_.total_subscription_msgs();
    const auto broker_count = overlay_.brokers().size();
    const double delta = static_cast<double>(total - last_total_);
    last_total_ = total;
    samples_.push_back(broker_count == 0 ? 0.0 : delta / static_cast<double>(broker_count));
  });
}

double TrafficProbe::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (const double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

}  // namespace evps
