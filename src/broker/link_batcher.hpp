// Per-link publication batching (DESIGN.md §14).
//
// A LinkBatcher sits between the broker's routing decision and Network::send.
// It buffers publications per destination — per-neighbour forwards and
// per-client deliveries alike — and flushes each destination's buffer as one
// PublishBatchMsg / DeliveryBatchMsg when it reaches `batch_size`, when the
// flush deadline fires, or when a non-batchable message must go out on the
// same link (the order-preserving barrier).
//
// With a zero deadline the flush timer runs in the same virtual instant as
// the enqueues (simulator same-time FIFO), so every batched publication
// leaves the broker at exactly the instant the per-message path would have
// sent it: arrival times, per-link order and therefore delivery timestamps
// are bit-identical. The overlay is a tree and clients are single-homed, so
// the cross-link send reordering batching introduces is unobservable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "metrics/link_counters.hpp"
#include "sim/network.hpp"

namespace evps {

/// Destination classification, cached per link on first touch (neighbour
/// sets are fixed after topology setup, so the routing-table consultation
/// happens once per (broker, destination), not once per event).
enum class LinkKind : std::uint8_t {
  kClient,   ///< delivery hop: DeliveryMsg / DeliveryBatchMsg
  kBroker,   ///< forwarding hop: PublishMsg / PublishBatchMsg
  kUnknown,  ///< not a neighbour: dropped (mirrors the pre-batching checks)
};

/// Default link batch size: the EVPS_LINK_BATCH environment variable,
/// clamped to [1, kMaxBatchPublications]; unset, empty, or unparsable
/// values mean 1 (the per-message path). Read once per process.
[[nodiscard]] std::size_t default_link_batch_size();

class LinkBatcher {
 public:
  struct Config {
    std::size_t batch_size = 1;                   ///< flush when a link buffers this many
    Duration flush_deadline = Duration::zero();   ///< 0 = same-instant flush
    bool measure_bytes = false;                   ///< account codec bytes per flush
  };

  /// `self` supplies the sending node id (assigned when the owner attaches
  /// to the network, after member construction); `classify` resolves a
  /// destination's kind on first touch.
  LinkBatcher(Network& net, const NetworkNode& self, Config config,
              std::function<LinkKind(NodeId)> classify);
  ~LinkBatcher();

  LinkBatcher(const LinkBatcher&) = delete;
  LinkBatcher& operator=(const LinkBatcher&) = delete;

  /// True when batching machinery is engaged. When false, enqueue() sends a
  /// scalar message immediately — the exact per-message path.
  [[nodiscard]] bool active() const noexcept {
    return config_.batch_size > 1 || config_.flush_deadline > Duration::zero();
  }

  /// Queue (or, when inactive, immediately send) one publication towards
  /// `dest`. Returns the destination's kind so the caller can count
  /// deliveries vs. forwards; kUnknown means the publication was dropped.
  LinkKind enqueue(NodeId dest, const PublicationPtr& pub);

  /// Flush `dest`'s pending publications, if any. MUST be called before
  /// sending any non-batchable message to `dest`: per-link FIFO then keeps
  /// the relative order of publications and control traffic exactly as the
  /// per-message path produced it.
  void barrier(NodeId dest);

  /// Flush every destination with pending publications (deadline timer).
  void flush_all();

  [[nodiscard]] const LinkBatchCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Visit every slot with buffered publications as (dest, pending count).
  /// Snapshot export support (analysis/audit): at a quiesce point no slot
  /// may have pending publications.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (!slot->pending.empty()) fn(slot->dest, slot->pending.size());
    }
  }

 private:
  enum class FlushCause : std::uint8_t { kSize, kDeadline, kBarrier };

  struct Slot {
    NodeId dest;
    LinkKind kind = LinkKind::kUnknown;
    std::vector<PublicationPtr> pending;
  };

  Slot& slot_for(NodeId dest);
  void flush_slot(Slot& slot, FlushCause cause);
  void send_scalar(NodeId dest, LinkKind kind, const PublicationPtr& pub);
  void schedule_flush();

  Network& net_;
  const NetworkNode& self_;
  Config config_;
  std::function<LinkKind(NodeId)> classify_;
  /// Slots in first-touch order (deterministic flush_all iteration) with a
  /// side index; a slot persists for the broker's lifetime.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<NodeId, std::size_t> slot_index_;
  bool flush_scheduled_ = false;
  /// Severs the deadline timer's capture of `this` on destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Reusable serialization arena (measure_bytes): steady-state accounting
  /// allocates nothing once the arena has grown to the largest batch.
  std::string arena_;
  LinkBatchCounters counters_;
};

}  // namespace evps
