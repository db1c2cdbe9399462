// Shared pieces of the engine-level benches (fig10ab_throughput,
// micro_engines), which drive engines directly without a network: a
// stand-alone host with a manually advanced clock, and the random moving
// area of interest they install.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "evolving/engine.hpp"
#include "workloads/game.hpp"

namespace evps_bench {

class BenchHost final : public evps::EngineHost {
 public:
  [[nodiscard]] evps::SimTime now() const override { return now_; }
  void schedule(evps::Duration delay, std::function<void()> fn) override {
    timers_.emplace_back(now_ + delay, std::move(fn));
  }
  [[nodiscard]] evps::VariableRegistry& variables() override { return registry_; }

  void advance_to(evps::SimTime t) {
    now_ = t;
    // Fire due timers (VES evolution wakeups) in scheduling order.
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      if (timers_[i].first <= now_) {
        auto fn = std::move(timers_[i].second);
        timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
        --i;
        fn();
      }
    }
  }

 private:
  evps::SimTime now_ = evps::SimTime::zero();
  evps::VariableRegistry registry_;
  std::vector<std::pair<evps::SimTime, std::function<void()>>> timers_;
};

/// A 6 x 4 area of interest at a uniform position in [-world, world]^2,
/// moving with a uniform velocity in [-2, 2]^2 units/s from t = 0.
inline evps::SubscriptionPtr random_aoi(std::uint64_t id, evps::Rng& rng, double world,
                                        evps::Duration mei,
                                        evps::Duration validity = evps::Duration::zero()) {
  const double x = rng.uniform(-world, world);
  const double y = rng.uniform(-world, world);
  const double dx = rng.uniform(-2, 2);
  const double dy = rng.uniform(-2, 2);
  evps::Subscription sub = evps::moving_aoi(x, y, dx, dy, 3.0, 2.0, /*visibility=*/false);
  sub.set_id(evps::SubscriptionId{id});
  sub.set_epoch(evps::SimTime::zero());
  sub.set_mei(mei);
  sub.set_tt(evps::Duration::seconds(1.0));
  sub.set_validity(validity);
  return std::make_shared<const evps::Subscription>(std::move(sub));
}

}  // namespace evps_bench
