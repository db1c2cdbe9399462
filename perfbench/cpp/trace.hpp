// Step-level tracing from outside the library.
//
// The replay calls Simulator::step() itself; with a Tracer attached each
// step becomes one span timed with std::chrono::steady_clock (the clock
// EngineCosts uses, so an engine child can never outlast its step). A
// Network tap names the span after the message delivered in that step and
// its destination kind (`publish@broker`, `delivery_batch@client`, ...);
// steps running the benchmark's own replay actions are `inject`, all other
// steps (VES ticks, link and batch flushes) are `timer`.
//
// A span's children are the before/after deltas of the brokers' EngineCosts
// sums (match, lazy_eval, maintenance). A step runs exactly one node's
// handler, so for a message span the all-broker delta is the destination
// broker's delta. Publication spans carry the publication's MessageId (a
// batch span lists every id it carried) and their parent is the span in
// which the same publication reached the sending node — for the entry hop,
// its inject span. Subscription spans carry the SubscriptionId and are
// parented the same way.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "broker/overlay.hpp"

namespace perfbench {

enum class Phase : std::uint8_t { kSetup, kTimed };

struct Span {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t parent = kNone;
  std::uint16_t kind = 0;  ///< index into span_kind_name()
  Phase phase = Phase::kSetup;
  std::uint32_t node = kNone;  ///< destination node of a message span
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  double match_s = 0;
  double lazy_s = 0;
  double maint_s = 0;
  std::uint64_t request = 0;  ///< publication / subscription id (0: none)
  std::uint32_t ids_begin = 0;  ///< batch spans: range of the ids they carried
  std::uint32_t ids_count = 0;
  std::uint32_t carried = 0;  ///< publications carried by the message

  [[nodiscard]] double children_s() const noexcept { return match_s + lazy_s + maint_s; }
  [[nodiscard]] double self_s() const noexcept { return dur_ns * 1e-9 - children_s(); }
};

/// Span kinds: one per (message alternative, destination kind), then
/// `inject` and `timer`.
[[nodiscard]] const char* span_kind_name(std::uint16_t kind) noexcept;
inline constexpr std::uint16_t kInjectSpan = 2 * std::variant_size_v<evps::Message>;
inline constexpr std::uint16_t kTimerSpan = kInjectSpan + 1;

class Tracer {
 public:
  /// Install the tap on `overlay`'s network. Call once, after every broker
  /// and client exists and before the first step.
  void attach(evps::Overlay& overlay);

  void set_phase(Phase phase) noexcept { phase_ = phase; }
  void begin_step();
  void end_step();

  /// The current step runs a replay action.
  void mark_inject() noexcept { inject_ = true; }
  void injected_publication(evps::MessageId id, evps::NodeId client);
  void injected_subscription(evps::SubscriptionId id, evps::NodeId client);
  void injected_unsubscription(evps::SubscriptionId id, evps::NodeId client);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One JSON object per span, in step order.
  void write_jsonl(std::ostream& os) const;

 private:
  enum class Request : std::uint8_t { kPublication, kSubscribe, kUnsubscribe };
  struct Key {
    std::uint64_t id;
    std::uint64_t node;
    Request request;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.id * 0x9e3779b97f4a7c15ULL ^ (k.node << 2) ^
                                        static_cast<std::uint64_t>(k.request));
    }
  };

  void on_delivery(const evps::Envelope& env);
  /// Parent lookup for a request arriving from `from`; records that it has
  /// now reached `to` in the current span.
  std::uint32_t hop(Request request, std::uint64_t id, evps::NodeId from, evps::NodeId to);
  void engine_sums(double& match, double& lazy, double& maint) const;

  std::vector<const evps::Broker*> brokers_;
  std::vector<bool> is_client_;  ///< by NodeId
  std::vector<std::string> node_names_;
  std::unordered_map<Key, std::uint32_t, KeyHash> reached_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> batch_ids_;
  Span current_;
  double match0_ = 0, lazy0_ = 0, maint0_ = 0;
  Phase phase_ = Phase::kSetup;
  bool inject_ = false;
  bool message_ = false;
};

}  // namespace perfbench
