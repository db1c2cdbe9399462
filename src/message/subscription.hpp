// Subscriptions: conjunctions of (possibly evolving) predicates, plus the
// evolution-control metadata from Section IV:
//   * MEI — minimum evaluation interval (VES): minimum lifetime of each
//     materialised version.
//   * TT — time threshold (CLEES): validity of a cached lazy version.
//   * validity — optional lifetime after which the client replaces the
//     subscription entirely (the workloads in Section VI replace evolving
//     subscriptions every 10 s / 60 s).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "expr/variable_registry.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"

namespace evps {

class Subscription {
 public:
  Subscription() = default;
  Subscription(SubscriptionId id, ClientId subscriber, std::vector<Predicate> predicates)
      : id_(id), subscriber_(subscriber), predicates_(std::move(predicates)) {}

  [[nodiscard]] SubscriptionId id() const noexcept { return id_; }
  void set_id(SubscriptionId id) noexcept { id_ = id; }

  [[nodiscard]] ClientId subscriber() const noexcept { return subscriber_; }
  void set_subscriber(ClientId c) noexcept { subscriber_ = c; }

  [[nodiscard]] const std::vector<Predicate>& predicates() const noexcept { return predicates_; }
  Subscription& add(Predicate p) {
    predicates_.push_back(std::move(p));
    return *this;
  }

  /// True iff at least one predicate is evolving.
  [[nodiscard]] bool is_evolving() const noexcept;
  /// True iff every predicate is evolving (Section V-B "subscriptions that
  /// contain only evolving ... predicates").
  [[nodiscard]] bool is_fully_evolving() const noexcept;

  [[nodiscard]] std::vector<Predicate> static_predicates() const;
  [[nodiscard]] std::vector<Predicate> evolving_predicates() const;

  /// All evolution variables referenced by any predicate.
  [[nodiscard]] std::set<std::string> variables() const;

  // --- evolution metadata -------------------------------------------------
  [[nodiscard]] Duration mei() const noexcept { return mei_; }
  Subscription& set_mei(Duration d) noexcept {
    mei_ = d;
    return *this;
  }

  [[nodiscard]] Duration tt() const noexcept { return tt_; }
  Subscription& set_tt(Duration d) noexcept {
    tt_ = d;
    return *this;
  }

  /// Zero duration means "no expiry".
  [[nodiscard]] Duration validity() const noexcept { return validity_; }
  Subscription& set_validity(Duration d) noexcept {
    validity_ = d;
    return *this;
  }

  /// Epoch: the instant `t` reads as 0 ("t is initialized to 0 at the time
  /// of subscription"). Stamped once when the subscription enters the
  /// system and carried to every broker.
  [[nodiscard]] SimTime epoch() const noexcept { return epoch_; }
  Subscription& set_epoch(SimTime t) noexcept {
    epoch_ = t;
    return *this;
  }

  // --- evaluation ----------------------------------------------------------
  /// Full conjunctive match: every predicate's attribute must be present in
  /// the publication and satisfied. Requires !is_evolving() (evolving parts
  /// are evaluated by the engines through CompiledPredicate).
  [[nodiscard]] bool matches(const Publication& pub) const;

  /// Convenience: evaluation scope for this subscription at time `now`.
  [[nodiscard]] EvalScope scope(const VariableRegistry* registry, SimTime now) const noexcept {
    return EvalScope{registry, now, epoch_};
  }

  [[nodiscard]] std::string to_string() const;

 private:
  SubscriptionId id_{};
  ClientId subscriber_{};
  std::vector<Predicate> predicates_;
  Duration mei_ = Duration::seconds(1.0);
  Duration tt_ = Duration::seconds(1.0);
  Duration validity_ = Duration::zero();
  SimTime epoch_{};
};

using SubscriptionPtr = std::shared_ptr<const Subscription>;

}  // namespace evps
