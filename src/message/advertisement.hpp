// Advertisements describe the publication space of a publisher; with
// advertisement-based routing, subscriptions are only forwarded towards
// brokers hosting publishers whose advertisements intersect them
// (Section III-A). The intersection test lives with the other value-set
// reasoning: overlaps() over static_shape()s (analysis/summary.hpp).
#pragma once

#include <string>
#include <vector>

#include "common/ids.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"

namespace evps {

class Advertisement {
 public:
  Advertisement() = default;
  Advertisement(MessageId id, ClientId publisher, std::vector<Predicate> predicates)
      : id_(id), publisher_(publisher), predicates_(std::move(predicates)) {}

  [[nodiscard]] MessageId id() const noexcept { return id_; }
  void set_id(MessageId id) noexcept { id_ = id; }
  [[nodiscard]] ClientId publisher() const noexcept { return publisher_; }
  void set_publisher(ClientId c) noexcept { publisher_ = c; }

  [[nodiscard]] const std::vector<Predicate>& predicates() const noexcept { return predicates_; }
  Advertisement& add(Predicate p) {
    predicates_.push_back(std::move(p));
    return *this;
  }

  /// True iff `pub` lies within the advertised space. Attributes not
  /// constrained by the advertisement are unrestricted; attributes that are
  /// constrained must be present and satisfy the constraint.
  [[nodiscard]] bool covers(const Publication& pub) const;

  [[nodiscard]] std::string to_string() const;

 private:
  MessageId id_{};
  ClientId publisher_{};
  std::vector<Predicate> predicates_;
};

}  // namespace evps
