// Client endpoint: a publisher and/or subscriber attached to one broker.
//
// Provides the client API of the paper's framework: subscribe (static or
// evolving), unsubscribe, resubscribe (the baseline unsub+sub pair),
// parametric subscription updates, advertise and publish. Received
// publications are recorded in a delivery log used by the accuracy metric.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "common/ids.hpp"
#include "message/codec.hpp"
#include "sim/network.hpp"

namespace evps {

/// Deterministic, collision-free id derivation: the high 32 bits carry the
/// client id, the low 32 bits a per-client sequence number. This makes runs
/// with identical workloads produce identical ids, which the ground-truth
/// comparison relies on.
[[nodiscard]] constexpr SubscriptionId make_subscription_id(ClientId client,
                                                            std::uint32_t seq) noexcept {
  return SubscriptionId{(client.value() << 32) | seq};
}
[[nodiscard]] constexpr MessageId make_publication_id(ClientId client,
                                                      std::uint32_t seq) noexcept {
  return MessageId{(client.value() << 32) | seq};
}

class PubSubClient final : public NetworkNode {
 public:
  struct Delivery {
    SimTime when;
    Publication pub;
  };

  /// `id` must be unique across the run (assigned by the workload).
  PubSubClient(ClientId id, std::string name, Network& net);

  PubSubClient(const PubSubClient&) = delete;
  PubSubClient& operator=(const PubSubClient&) = delete;

  /// Attach to `broker` over a link with `latency`. Must be called once
  /// before any other operation.
  void connect(Broker& broker, Duration latency);

  [[nodiscard]] ClientId id() const noexcept { return id_; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool connected() const noexcept { return broker_ != nullptr; }
  [[nodiscard]] Broker& broker() const {
    if (broker_ == nullptr) throw std::logic_error("client not connected");
    return *broker_;
  }

  // --- subscriber API --------------------------------------------------------
  /// Register `sub`: assigns an id (unless one is already set), stamps the
  /// epoch and subscriber, and sends it to the broker. Returns the id.
  SubscriptionId subscribe(Subscription sub);
  /// Parse-and-subscribe convenience (see message/codec.hpp for the syntax).
  SubscriptionId subscribe(std::string_view text) { return subscribe(parse_subscription(text)); }

  void unsubscribe(SubscriptionId id);

  /// Baseline resubscription: unsubscribe `old_id`, then subscribe the
  /// replacement (two messages, Section I). Returns the new id.
  SubscriptionId resubscribe(SubscriptionId old_id, Subscription replacement);

  /// Parametric baseline [12]: adjust predicate operands in place with a
  /// single update message.
  void update_subscription(SubscriptionId id, std::vector<std::optional<Value>> new_values);

  // --- publisher API ---------------------------------------------------------
  MessageId publish(Publication pub);
  MessageId publish(std::string_view text) { return publish(parse_publication(text)); }

  MessageId advertise(std::vector<Predicate> predicates);
  void unadvertise(MessageId id);

  /// Push an evolution-variable value into the broker network (e.g. the
  /// game server propagating visibility).
  void send_var_update(const std::string& name, double value);

  /// Subscriptions issued by this client and not yet unsubscribed.
  [[nodiscard]] const std::set<SubscriptionId>& active_subscriptions() const noexcept {
    return active_subs_;
  }
  /// Advertisements issued and not yet withdrawn.
  [[nodiscard]] const std::set<MessageId>& active_advertisements() const noexcept {
    return active_advs_;
  }

  /// Graceful departure: unsubscribe every active subscription and withdraw
  /// every advertisement. The client stays attached (it may re-subscribe).
  void shutdown();

  // --- delivery log ----------------------------------------------------------
  [[nodiscard]] const std::vector<Delivery>& deliveries() const noexcept { return deliveries_; }

  /// Optional hook invoked on each delivery (after logging).
  std::function<void(const Publication&, SimTime)> on_delivery;

  void on_message(const Envelope& env) override;

 private:
  void record_delivery(const PublicationPtr& pub);

  ClientId id_;
  std::string name_;
  Network& net_;
  Broker* broker_ = nullptr;
  std::uint32_t next_sub_seq_ = 1;
  std::uint32_t next_pub_seq_ = 1;
  std::uint32_t next_adv_seq_ = 1;
  std::set<SubscriptionId> active_subs_;
  std::set<MessageId> active_advs_;
  std::vector<Delivery> deliveries_;
};

}  // namespace evps
