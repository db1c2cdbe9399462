#include "replay.hpp"

#include <chrono>
#include <ctime>

#include "broker/overlay.hpp"

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tally operator-(const Tally& a, const Tally& b) {
  Tally d;
  for (const auto& [name, field] : kTallyFields) d.*field = a.*field - b.*field;
  return d;
}

namespace {

void fnv1a(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

class Replay {
 public:
  Replay(const Workload& w, Variant variant, Tracer* tracer)
      : w_(w), tracer_(tracer), sub_ids_(w.subs.size()) {
    const bool twin = variant == Variant::kTwin;
    if (twin) {
      evps::BrokerConfig cfg;
      cfg.engine.kind = evps::EngineKind::kLees;
      cfg.engine.matcher = w.config.engine.matcher;
      cfg.engine.matcher_threads = 1;
      cfg.link_batch_size = 1;
      brokers_.push_back(&overlay_.add_broker("truth", cfg));
    } else {
      evps::BrokerConfig cfg = w.config;
      if (variant == Variant::kUnbatched || variant == Variant::kReference) {
        cfg.link_batch_size = 1;
      }
      if (variant == Variant::kReference) cfg.covering = false;
      for (const BrokerSpec& b : w.brokers) {
        brokers_.push_back(&overlay_.add_broker(b.name, cfg));
        if (b.parent >= 0) {
          overlay_.connect(*brokers_.back(), *brokers_[static_cast<std::size_t>(b.parent)],
                           b.latency);
        }
      }
      var_broker_ = brokers_.at(w.variable_broker);
    }
    if (twin) var_broker_ = brokers_.front();
    for (evps::Broker* b : brokers_) {
      for (const VarSpec& v : w.vars) b->variables().declare_range(v.name, v.lo, v.hi);
    }
    for (const ClientSpec& c : w.clients) {
      evps::PubSubClient& client = overlay_.add_client(c.name);
      client.connect(twin ? *brokers_.front() : *brokers_.at(c.broker),
                     twin ? Duration::zero() : c.latency);
      clients_.push_back(&client);
    }
    if (tracer_ != nullptr) tracer_->attach(overlay_);
    schedule_next();
  }

  /// Step the simulator until the sentinel at `until` has run.
  void run_until(SimTime until, Phase phase) {
    done_ = false;
    timed_ = phase == Phase::kTimed;
    sim_.at(until, [this] {
      done_ = true;
      if (tracer_ != nullptr) tracer_->mark_inject();
    });
    if (tracer_ == nullptr) {
      while (!done_) sim_.step();
      return;
    }
    tracer_->set_phase(phase);
    while (!done_) {
      tracer_->begin_step();
      sim_.step();
      tracer_->end_step();
    }
  }

  [[nodiscard]] Tally tally() {
    Tally t;
    t.events = sim_.executed();
    t.messages = overlay_.network().messages_sent();
    for (const evps::Broker* b : brokers_) {
      const evps::BrokerStats& s = b->stats();
      t.subscription_msgs += s.subscription_msgs;
      t.subscribes += s.subscribes;
      t.unsubscribes += s.unsubscribes;
      t.publications += s.publications;
      t.pubs_forwarded += s.pubs_forwarded;
      t.deliveries += s.deliveries;
      t.var_updates += s.var_updates;
      const evps::LinkBatchCounters& l = b->link_counters();
      t.link_events += l.events;
      t.link_batch_msgs += l.batch_messages;
      t.link_single_msgs += l.single_messages;
      t.size_flushes += l.size_flushes;
      t.deadline_flushes += l.deadline_flushes;
      t.barrier_flushes += l.barrier_flushes;
      t.link_bytes += l.bytes;
      const evps::EngineCosts& c = b->engine().costs();
      t.evolutions += c.evolutions;
      t.lazy_evaluations += c.lazy_evaluations;
      t.cache_hits += c.cache_hits;
      t.cache_misses += c.cache_misses;
      t.match_calls += c.match.count();
      const evps::CoverStats cover = b->covering_stats();
      t.cover_pairs += cover.pairs;
      t.covered += cover.covered;
      const evps::CoveringCounters& cc = b->covering_counters();
      t.suppressed += cc.suppressed_forwards;
      t.resubscribes += cc.resubscribes;
      t.demote_unsubscribes += cc.demote_unsubscribes;
      t.rejected += b->analysis_counters().rejected();
    }
    return t;
  }

  [[nodiscard]] EngineTime engine_time() const {
    EngineTime e;
    for (const evps::Broker* b : brokers_) {
      const evps::EngineCosts& c = b->engine().costs();
      e.match += c.match.sum();
      e.lazy_eval += c.lazy_eval.sum();
      e.maintenance += c.maintenance.sum();
    }
    return e;
  }

  [[nodiscard]] std::uint64_t population() const {
    std::uint64_t n = 0;
    for (const evps::Broker* b : brokers_) n += b->engine().matcher_population();
    return n;
  }

  void collect(RunResult& r, bool keep_outputs) const {
    Counts& c = r.counts;
    c.pubs = pubs_;
    c.sub_ops = sub_ops_;
    c.timed_sub_ops = timed_sub_ops_;
    c.var_sets = var_sets_;
    c.fingerprint = 14695981039346656037ULL;
    for (const auto& client : overlay_.clients()) {
      for (const auto& d : client->deliveries()) {
        fnv1a(c.fingerprint, client->id().value());
        fnv1a(c.fingerprint, static_cast<std::uint64_t>(d.when.micros()));
        fnv1a(c.fingerprint, d.pub.id().value());
        ++c.client_deliveries;
        if (keep_outputs) {
          r.latencies_ms.push_back(
              static_cast<double>((d.when - d.pub.entry_time()).count_micros()) / 1000.0);
        }
      }
    }
    if (keep_outputs) r.log = evps::collect_delivery_log(overlay_);
  }

 private:
  void schedule_next() {
    if (cursor_ < w_.ops.size()) sim_.at(w_.ops[cursor_].at, [this] { inject(); });
  }

  /// One step applies every input due at this instant, in generation order.
  void inject() {
    if (tracer_ != nullptr) tracer_->mark_inject();
    const SimTime now = w_.ops[cursor_].at;
    while (cursor_ < w_.ops.size() && w_.ops[cursor_].at == now) apply(w_.ops[cursor_++]);
    schedule_next();
  }

  void apply(const Op& op) {
    if (op.kind == OpKind::kSetVariable) {
      var_broker_->set_variable(w_.vars[op.index].name, op.value);
      if (timed_) ++var_sets_;
      return;
    }
    evps::PubSubClient& client = *clients_[op.client];
    switch (op.kind) {
      case OpKind::kAdvertise:
        client.advertise(w_.adverts[op.index]);
        break;
      case OpKind::kSubscribe: {
        const evps::SubscriptionId id = client.subscribe(w_.subs[op.index]);
        sub_ids_[op.index] = id;
        if (tracer_ != nullptr) tracer_->injected_subscription(id, client.node_id());
        count_sub_op();
        break;
      }
      case OpKind::kUnsubscribe: {
        const evps::SubscriptionId id = sub_ids_[op.index];
        client.unsubscribe(id);
        if (tracer_ != nullptr) tracer_->injected_unsubscription(id, client.node_id());
        count_sub_op();
        break;
      }
      case OpKind::kPublish: {
        const evps::MessageId id = client.publish(w_.pubs[op.index]);
        if (tracer_ != nullptr) tracer_->injected_publication(id, client.node_id());
        ++pubs_;
        break;
      }
      case OpKind::kSetVariable:
        break;
    }
  }

  void count_sub_op() {
    ++sub_ops_;
    if (timed_) ++timed_sub_ops_;
  }

  const Workload& w_;
  Tracer* tracer_;
  evps::Simulator sim_;
  evps::Overlay overlay_{sim_};
  std::vector<evps::Broker*> brokers_;
  evps::Broker* var_broker_ = nullptr;
  std::vector<evps::PubSubClient*> clients_;
  std::vector<evps::SubscriptionId> sub_ids_;
  std::size_t cursor_ = 0;
  bool done_ = false;
  bool timed_ = false;
  std::uint64_t pubs_ = 0;
  std::uint64_t sub_ops_ = 0;
  std::uint64_t timed_sub_ops_ = 0;
  std::uint64_t var_sets_ = 0;
};

}  // namespace

RunResult run_workload(const Workload& w, Variant variant, Tracer* tracer, bool keep_outputs) {
  RunResult r;
  const double setup_start = cpu_seconds();
  Replay replay(w, variant, tracer);
  replay.run_until(w.setup_end, Phase::kSetup);
  r.setup_cpu_s = cpu_seconds() - setup_start;

  r.counts.setup = replay.tally();
  r.counts.population = replay.population();
  const EngineTime before = replay.engine_time();
  const double wall_start = wall_seconds();
  const double cpu_start = cpu_seconds();
  replay.run_until(w.end, Phase::kTimed);
  r.timed_cpu_s = cpu_seconds() - cpu_start;
  r.timed_wall_s = wall_seconds() - wall_start;

  const EngineTime after = replay.engine_time();
  r.timed_engine = EngineTime{after.match - before.match, after.lazy_eval - before.lazy_eval,
                              after.maintenance - before.maintenance};
  r.counts.total = replay.tally();
  replay.collect(r, keep_outputs);
  return r;
}

double run_setup(const Workload& w, Variant variant, Tally& setup) {
  const double start = cpu_seconds();
  Replay replay(w, variant, nullptr);
  replay.run_until(w.setup_end, Phase::kSetup);
  const double cpu = cpu_seconds() - start;
  setup = replay.tally();
  return cpu;
}

}  // namespace perfbench
