#include "broker/link_batcher.hpp"

#include <algorithm>
#include <cstdlib>

#include "message/codec.hpp"

namespace evps {

std::size_t default_link_batch_size() {
  static const std::size_t cached = [] {
    // Read once before any worker thread exists; nothing in-process calls
    // setenv, so the lone getenv is benign.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("EVPS_LINK_BATCH");
    if (env == nullptr || *env == '\0') return std::size_t{1};
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || v < 1) return std::size_t{1};
    return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxBatchPublications);
  }();
  return cached;
}

LinkBatcher::LinkBatcher(Network& net, const NetworkNode& self, Config config,
                         std::function<LinkKind(NodeId)> classify)
    : net_(net), self_(self), config_(config), classify_(std::move(classify)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
}

LinkBatcher::~LinkBatcher() { *alive_ = false; }

LinkBatcher::Slot& LinkBatcher::slot_for(NodeId dest) {
  const auto it = slot_index_.find(dest);
  if (it != slot_index_.end()) return *slots_[it->second];
  slot_index_.emplace(dest, slots_.size());
  slots_.push_back(std::make_unique<Slot>(Slot{dest, classify_(dest), {}}));
  return *slots_.back();
}

LinkKind LinkBatcher::enqueue(NodeId dest, const PublicationPtr& pub) {
  Slot& slot = slot_for(dest);
  if (slot.kind == LinkKind::kUnknown) return LinkKind::kUnknown;
  if (!active()) {
    send_scalar(dest, slot.kind, pub);
    return slot.kind;
  }
  slot.pending.push_back(pub);
  if (slot.pending.size() >= config_.batch_size) {
    flush_slot(slot, FlushCause::kSize);
  } else {
    schedule_flush();
  }
  return slot.kind;
}

void LinkBatcher::barrier(NodeId dest) {
  const auto it = slot_index_.find(dest);
  if (it == slot_index_.end()) return;
  Slot& slot = *slots_[it->second];
  if (!slot.pending.empty()) flush_slot(slot, FlushCause::kBarrier);
}

void LinkBatcher::flush_all() {
  for (const auto& slot : slots_) {
    if (!slot->pending.empty()) flush_slot(*slot, FlushCause::kDeadline);
  }
}

void LinkBatcher::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // With a zero deadline this fires in the same virtual instant, after every
  // already-queued same-time event — the equivalence-preserving policy.
  net_.simulator().after(config_.flush_deadline, [this, alive = alive_] {
    if (!*alive) return;
    flush_scheduled_ = false;
    flush_all();
  });
}

void LinkBatcher::send_scalar(NodeId dest, LinkKind kind, const PublicationPtr& pub) {
  ++counters_.single_messages;
  ++counters_.events;
  if (config_.measure_bytes) counters_.bytes += serialize(*pub).size();
  if (kind == LinkKind::kClient) {
    net_.send(self_.node_id(), dest, DeliveryMsg{pub});
  } else {
    net_.send(self_.node_id(), dest, PublishMsg{pub, nullptr});
  }
}

void LinkBatcher::flush_slot(Slot& slot, FlushCause cause) {
  switch (cause) {
    case FlushCause::kSize: ++counters_.size_flushes; break;
    case FlushCause::kDeadline: ++counters_.deadline_flushes; break;
    case FlushCause::kBarrier: ++counters_.barrier_flushes; break;
  }
  if (slot.pending.size() == 1) {
    // A batch of one goes out in scalar framing: the wire never carries
    // batch overhead for unamortised sends, and the inactive/active paths
    // stay byte-identical at batch_size 1.
    send_scalar(slot.dest, slot.kind, slot.pending.front());
    slot.pending.clear();
    return;
  }
  ++counters_.batch_messages;
  counters_.events += slot.pending.size();
  counters_.fill.add(static_cast<double>(slot.pending.size()));
  if (config_.measure_bytes) {
    serialize_batch(std::span<const PublicationPtr>(slot.pending), arena_);
    counters_.bytes += arena_.size();
  }
  std::vector<PublicationPtr> pubs;
  pubs.swap(slot.pending);
  if (slot.kind == LinkKind::kClient) {
    net_.send(self_.node_id(), slot.dest, DeliveryBatchMsg{std::move(pubs)});
  } else {
    net_.send(self_.node_id(), slot.dest, PublishBatchMsg{std::move(pubs)});
  }
}

}  // namespace evps
