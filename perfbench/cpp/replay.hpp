// Replay of a generated workload through the library's public API.
//
// One call builds a fresh overlay, replays the workload's set-up inputs
// until the set-up instant, then its timed inputs until the end instant,
// stepping the simulator itself. Inputs enter on their fixed virtual
// schedule whatever they cost (an open loop in virtual time). CPU time is
// process CPU time, split at the phase boundary.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/accuracy.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class Variant : std::uint8_t {
  kMeasured,   ///< the workload's own deployment
  kUnbatched,  ///< same deployment, link batch 1
  kReference,  ///< same deployment, covering off and link batch 1
  kTwin,       ///< ground truth: one zero-latency LEES broker
};

/// Counters summed over every broker (plus the simulator and network) at
/// one instant of a run.
struct Tally {
  std::uint64_t events = 0;    ///< Simulator::executed()
  std::uint64_t messages = 0;  ///< Network::messages_sent()
  std::uint64_t subscription_msgs = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;
  std::uint64_t publications = 0;  ///< publications received (each is matched once)
  std::uint64_t pubs_forwarded = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t var_updates = 0;
  std::uint64_t link_events = 0;
  std::uint64_t link_batch_msgs = 0;
  std::uint64_t link_single_msgs = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t barrier_flushes = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t evolutions = 0;
  std::uint64_t lazy_evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t match_calls = 0;
  std::uint64_t cover_pairs = 0;
  std::uint64_t covered = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t resubscribes = 0;
  std::uint64_t demote_unsubscribes = 0;
  std::uint64_t rejected = 0;

  bool operator==(const Tally&) const = default;
};

/// Every Tally field with its name, for subtraction and printing.
inline constexpr std::pair<const char*, std::uint64_t Tally::*> kTallyFields[] = {
    {"events", &Tally::events},
    {"messages", &Tally::messages},
    {"subscription_msgs", &Tally::subscription_msgs},
    {"subscribes", &Tally::subscribes},
    {"unsubscribes", &Tally::unsubscribes},
    {"publications", &Tally::publications},
    {"pubs_forwarded", &Tally::pubs_forwarded},
    {"deliveries", &Tally::deliveries},
    {"var_updates", &Tally::var_updates},
    {"link_events", &Tally::link_events},
    {"link_batch_msgs", &Tally::link_batch_msgs},
    {"link_single_msgs", &Tally::link_single_msgs},
    {"size_flushes", &Tally::size_flushes},
    {"deadline_flushes", &Tally::deadline_flushes},
    {"barrier_flushes", &Tally::barrier_flushes},
    {"link_bytes", &Tally::link_bytes},
    {"evolutions", &Tally::evolutions},
    {"lazy_evaluations", &Tally::lazy_evaluations},
    {"cache_hits", &Tally::cache_hits},
    {"cache_misses", &Tally::cache_misses},
    {"match_calls", &Tally::match_calls},
    {"cover_pairs", &Tally::cover_pairs},
    {"covered", &Tally::covered},
    {"suppressed", &Tally::suppressed},
    {"resubscribes", &Tally::resubscribes},
    {"demote_unsubscribes", &Tally::demote_unsubscribes},
    {"rejected", &Tally::rejected},
};

[[nodiscard]] Tally operator-(const Tally& a, const Tally& b);

/// Engine time sums over every broker, in seconds.
struct EngineTime {
  double match = 0;
  double lazy_eval = 0;
  double maintenance = 0;
};

/// Everything a run determines exactly: equal for equal (workload, variant),
/// traced or not.
struct Counts {
  Tally setup;  ///< at the end of set-up
  Tally total;  ///< at the end of the run
  std::uint64_t pubs = 0;           ///< publications injected (all in the timed phase)
  std::uint64_t sub_ops = 0;        ///< subscribe + unsubscribe calls, whole run
  std::uint64_t timed_sub_ops = 0;  ///< the same, timed phase only
  std::uint64_t var_sets = 0;       ///< variable updates applied in the timed phase
  std::uint64_t client_deliveries = 0;
  std::uint64_t population = 0;  ///< Σ matcher_population() after set-up
  std::uint64_t fingerprint = 0;  ///< FNV-1a over every client's delivery log

  [[nodiscard]] Tally timed() const { return total - setup; }
  bool operator==(const Counts&) const = default;
};

struct RunResult {
  Counts counts;
  double setup_cpu_s = 0;
  double timed_cpu_s = 0;
  double timed_wall_s = 0;
  EngineTime timed_engine;
  std::vector<double> latencies_ms;  ///< entry stamp to client delivery, virtual ms
  evps::DeliveryLog log;
};

/// Replay `w` once. With a tracer every step is recorded as a span. With
/// `keep_outputs` the delivery log and latency samples are collected
/// (after the timed phase, outside its CPU time).
[[nodiscard]] RunResult run_workload(const Workload& w, Variant variant, Tracer* tracer,
                                     bool keep_outputs);

/// Build the overlay and replay only the set-up inputs. Returns the set-up
/// CPU seconds; `setup` receives the tally at the end of set-up.
[[nodiscard]] double run_setup(const Workload& w, Variant variant, Tally& setup);

/// Process CPU time in seconds (CLOCK_PROCESS_CPUTIME_ID).
[[nodiscard]] double cpu_seconds();
/// Monotonic wall time in seconds (std::chrono::steady_clock).
[[nodiscard]] double wall_seconds();

}  // namespace perfbench
