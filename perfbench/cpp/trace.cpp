#include "trace.hpp"

#include <chrono>
#include <ostream>
#include <string>
#include <utility>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <std::size_t... I>
std::vector<std::string> make_kind_names(std::index_sequence<I...> /*unused*/) {
  const std::vector<std::string> messages{
      evps::message_kind(evps::Message{std::in_place_index<I>})...};
  std::vector<std::string> names;
  for (const std::string& m : messages) {
    names.push_back(m + "@broker");
    names.push_back(m + "@client");
  }
  names.emplace_back("inject");
  names.emplace_back("timer");
  return names;
}

const std::vector<std::string>& kind_names() {
  static const std::vector<std::string> names =
      make_kind_names(std::make_index_sequence<std::variant_size_v<evps::Message>>{});
  return names;
}

std::uint16_t message_span_kind(const evps::Message& msg, bool to_client) noexcept {
  return static_cast<std::uint16_t>(2 * msg.index() + (to_client ? 1 : 0));
}

}  // namespace

const char* span_kind_name(std::uint16_t kind) noexcept {
  const auto& names = kind_names();
  return kind < names.size() ? names[kind].c_str() : "?";
}

void Tracer::attach(evps::Overlay& overlay) {
  const std::size_t nodes = overlay.network().node_count();
  is_client_.assign(nodes, false);
  node_names_.assign(nodes, std::string{});
  for (const auto& b : overlay.brokers()) {
    brokers_.push_back(b.get());
    node_names_[b->node_id().value()] = b->name();
  }
  for (const auto& c : overlay.clients()) {
    is_client_[c->node_id().value()] = true;
    node_names_[c->node_id().value()] = c->name();
  }
  overlay.network().add_tap(
      [this](const evps::Envelope& env, evps::SimTime /*at*/) { on_delivery(env); });
}

void Tracer::engine_sums(double& match, double& lazy, double& maint) const {
  match = lazy = maint = 0;
  for (const evps::Broker* b : brokers_) {
    const evps::EngineCosts& c = b->engine().costs();
    match += c.match.sum();
    lazy += c.lazy_eval.sum();
    maint += c.maintenance.sum();
  }
}

void Tracer::begin_step() {
  current_ = Span{};
  current_.phase = phase_;
  inject_ = false;
  message_ = false;
  engine_sums(match0_, lazy0_, maint0_);
  current_.start_ns = now_ns();
}

void Tracer::end_step() {
  const std::int64_t end = now_ns();
  double match = 0, lazy = 0, maint = 0;
  engine_sums(match, lazy, maint);
  current_.dur_ns = end - current_.start_ns;
  current_.match_s = match - match0_;
  current_.lazy_s = lazy - lazy0_;
  current_.maint_s = maint - maint0_;
  if (!message_) current_.kind = inject_ ? kInjectSpan : kTimerSpan;
  spans_.push_back(current_);
}

std::uint32_t Tracer::hop(Request request, std::uint64_t id, evps::NodeId from,
                          evps::NodeId to) {
  reached_[Key{id, to.value(), request}] = static_cast<std::uint32_t>(spans_.size());
  const auto it = reached_.find(Key{id, from.value(), request});
  return it == reached_.end() ? Span::kNone : it->second;
}

void Tracer::injected_publication(evps::MessageId id, evps::NodeId client) {
  reached_[Key{id.value(), client.value(), Request::kPublication}] =
      static_cast<std::uint32_t>(spans_.size());
}

void Tracer::injected_subscription(evps::SubscriptionId id, evps::NodeId client) {
  reached_[Key{id.value(), client.value(), Request::kSubscribe}] =
      static_cast<std::uint32_t>(spans_.size());
}

void Tracer::injected_unsubscription(evps::SubscriptionId id, evps::NodeId client) {
  reached_[Key{id.value(), client.value(), Request::kUnsubscribe}] =
      static_cast<std::uint32_t>(spans_.size());
}

void Tracer::on_delivery(const evps::Envelope& env) {
  message_ = true;
  current_.kind = message_span_kind(env.msg, is_client_[env.to.value()]);
  current_.node = static_cast<std::uint32_t>(env.to.value());
  current_.carried = static_cast<std::uint32_t>(evps::publications_carried(env.msg));
  const auto single = [&](Request request, std::uint64_t id) {
    current_.request = id;
    current_.parent = hop(request, id, env.from, env.to);
  };
  const auto batch = [&](const std::vector<evps::PublicationPtr>& pubs) {
    current_.ids_begin = static_cast<std::uint32_t>(batch_ids_.size());
    current_.ids_count = static_cast<std::uint32_t>(pubs.size());
    for (std::size_t i = 0; i < pubs.size(); ++i) {
      const std::uint64_t id = pubs[i]->id().value();
      batch_ids_.push_back(id);
      const std::uint32_t parent = hop(Request::kPublication, id, env.from, env.to);
      if (i == 0) {
        current_.request = id;
        current_.parent = parent;
      }
    }
  };
  if (const auto* m = std::get_if<evps::PublishMsg>(&env.msg)) {
    single(Request::kPublication, m->pub->id().value());
  } else if (const auto* d = std::get_if<evps::DeliveryMsg>(&env.msg)) {
    single(Request::kPublication, d->pub->id().value());
  } else if (const auto* pb = std::get_if<evps::PublishBatchMsg>(&env.msg)) {
    batch(pb->pubs);
  } else if (const auto* db = std::get_if<evps::DeliveryBatchMsg>(&env.msg)) {
    batch(db->pubs);
  } else if (const auto* s = std::get_if<evps::SubscribeMsg>(&env.msg)) {
    if (s->sub) single(Request::kSubscribe, s->sub->id().value());
  } else if (const auto* u = std::get_if<evps::UnsubscribeMsg>(&env.msg)) {
    single(Request::kUnsubscribe, u->id.value());
  }
}

void Tracer::write_jsonl(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto ns = [](double seconds) { return static_cast<std::int64_t>(seconds * 1e9); };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"parent\":";
    if (s.parent == Span::kNone) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << ",\"name\":\"" << span_kind_name(s.kind) << "\",\"phase\":\""
       << (s.phase == Phase::kSetup ? "setup" : "timed") << "\"";
    if (s.node != Span::kNone) os << ",\"node\":\"" << node_names_[s.node] << "\"";
    os << ",\"start_ns\":" << s.start_ns - origin << ",\"dur_ns\":" << s.dur_ns
       << ",\"match_ns\":" << ns(s.match_s) << ",\"lazy_eval_ns\":" << ns(s.lazy_s)
       << ",\"maintenance_ns\":" << ns(s.maint_s);
    if (s.ids_count > 0) {
      os << ",\"ids\":[";
      for (std::uint32_t k = 0; k < s.ids_count; ++k) {
        os << (k == 0 ? "" : ",") << batch_ids_[s.ids_begin + k];
      }
      os << "]";
    } else if (s.request != 0) {
      os << ",\"id\":" << s.request;
    }
    os << "}\n";
  }
}

}  // namespace perfbench
