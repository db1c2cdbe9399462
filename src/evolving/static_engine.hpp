// Plain content-based engine: the resubscription and parametric baselines.
//
// Evolving subscriptions are rejected; clients must unsubscribe and
// resubscribe to change interests (Section I). Built with
// EngineKind::kParametric it is the parametric-subscriptions baseline [12]:
// update messages adjust constant operands in place through
// BrokerEngine::update (remove + reinsert, charged to maintenance) — one
// network message instead of an unsubscribe/subscribe pair. Matching is the
// base class's matcher-only path.
#pragma once

#include "evolving/engine.hpp"

namespace evps {

class StaticEngine final : public BrokerEngine {
 public:
  explicit StaticEngine(const EngineConfig& config) : BrokerEngine(config) {}

 protected:
  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;
};

}  // namespace evps
