// evps_perfbench: end-to-end and per-layer benchmark of the pub/sub overlay.
//
//   evps_perfbench --workload <mmog_lees|hft_ves|zones_clees> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out <file>]
//                  [--reps <n>] [--variant <measured|unbatched|reference>]
//
// --trace 0 replays the workload once to warm up, then until --seconds of
// CPU are spent (at least three timed replays), replays it once more into
// the ground-truth twin, and prints the end-to-end metrics. --trace 1
// alternates untraced and traced replays, prints the per-layer metrics, and
// writes the spans of the last traced replay to --trace-out. With --reps the
// replay count is fixed and every replay is timed (self-tests). Every run
// checks its own outputs; the last stdout line is one JSON object {correct,
// attempted, failed, metrics}, and the exit code is non-zero when a check
// fails. See README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/analyzer.hpp"
#include "analysis/covering.hpp"
#include "message/advertisement.hpp"
#include "message/codec.hpp"
#include "replay.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// --- build and environment ---------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &max_leaf, &b, &c, &d) != 0 && max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // cut at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- command line --------------------------------------------------------------

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kMeasured: return "measured";
    case Variant::kUnbatched: return "unbatched";
    case Variant::kReference: return "reference";
    case Variant::kTwin: return "twin";
  }
  return "?";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::size_t reps = 0;  ///< 0: as many as --seconds allows
  Variant variant = Variant::kMeasured;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--reps") {
      a.reps = std::stoul(value);
      if (a.reps == 0) throw std::invalid_argument("--reps must be positive");
    } else if (flag == "--variant") {
      if (value == "measured") {
        a.variant = Variant::kMeasured;
      } else if (value == "unbatched") {
        a.variant = Variant::kUnbatched;
      } else if (value == "reference") {
        a.variant = Variant::kReference;
      } else {
        throw std::invalid_argument("--variant takes measured, unbatched or reference");
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return a;
}

// --- statistics ------------------------------------------------------------------

/// Quantile `q` of a sample, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Nearest-rank quantile of an already sorted sample.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// --- report ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit, const std::string& note = "") {
    std::cout << "metric " << name << " = " << format(value) << " " << unit;
    if (!note.empty()) std::cout << "  (" << note << ")";
    std::cout << "\n";
    check(std::isfinite(value), name + " is not finite");
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Printed for the reader only; not part of the result object.
  static void info(const std::string& name, double value, const std::string& unit,
                   const std::string& note) {
    std::cout << "info   " << name << " = " << format(value) << " " << unit << "  (" << note
              << ")\n";
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  void print_result(std::uint64_t attempted, std::uint64_t failed) const {
    for (const std::string& f : failures_) std::cout << "check failed: " << f << "\n";
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
         << "\": {\"value\": " << format(metrics_[i].value) << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

  static std::string format(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Deterministic counts as one JSON object (the self-test compares these
/// across invocations).
void print_counts(const Counts& c) {
  const auto tally = [](std::ostream& os, const char* prefix, const Tally& t) {
    for (const auto& [name, field] : kTallyFields) {
      os << ", \"" << prefix << name << "\": " << t.*field;
    }
  };
  std::ostringstream os;
  os << "counts {\"fingerprint\": \"" << std::hex << c.fingerprint << std::dec
     << "\", \"client_deliveries\": " << c.client_deliveries << ", \"pubs\": " << c.pubs
     << ", \"sub_ops\": " << c.sub_ops << ", \"timed_sub_ops\": " << c.timed_sub_ops
     << ", \"var_sets\": " << c.var_sets << ", \"population\": " << c.population;
  tally(os, "setup.", c.setup);
  tally(os, "total.", c.total);
  os << "}";
  std::cout << os.str() << "\n";
}

/// Checks every run shares: identical counts across replays, deliveries
/// that reconcile with the brokers' own statistics, and a timed phase that
/// actually issued inputs.
void check_counts(Report& report, const std::vector<const RunResult*>& runs) {
  const Counts& c = runs.front()->counts;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    report.check(runs[i]->counts == c, "replay " + std::to_string(i) +
                                           " counts differ from replay 0 (non-deterministic)");
  }
  report.check(c.client_deliveries == c.total.deliveries,
               "client logs hold " + std::to_string(c.client_deliveries) +
                   " deliveries but brokers counted " + std::to_string(c.total.deliveries));
  report.check(c.pubs > 0, "no publications in the timed phase");
  report.check(c.timed_sub_ops > 0, "no subscription operations in the timed phase");
  report.check(c.client_deliveries > 0, "nothing was delivered");
}

std::uint64_t attempted_ops(const Counts& c) { return c.pubs + c.timed_sub_ops + c.var_sets; }

// --- end-to-end run (--trace 0) --------------------------------------------------

/// Timed replays per run, after the warm-up replay.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
/// Set-ups per run behind setup_s: every timed replay sets up once, and
/// set-up-only builds make up the rest.
constexpr std::size_t kMinSetups = 9;
/// The CPU metrics report this quantile of the per-replay CPU times. The
/// host runs faster in windows of seconds to over a minute; such a window
/// must cover three quarters of a run to move the figure.
constexpr double kCpuQuantile = 0.75;

int run_end_to_end(const Args& args, const Workload& w) {
  Report report;
  // Replay 0 warms up the allocator and caches and keeps the outputs; it is
  // not timed. With --reps it is the only replay, and timed.
  std::vector<RunResult> runs{run_workload(w, args.variant, nullptr, true)};
  const std::size_t first_timed = args.reps != 0 ? 0 : 1;
  double spent = 0;
  while (runs.size() < (args.reps != 0 ? args.reps : kMaxReps)) {
    runs.push_back(run_workload(w, args.variant, nullptr, false));
    spent += runs.back().setup_cpu_s + runs.back().timed_cpu_s;
    if (args.reps == 0 && runs.size() > kMinReps && spent >= args.seconds) break;
  }
  std::vector<double> setup, timed_cpu;
  for (std::size_t i = first_timed; i < runs.size(); ++i) {
    setup.push_back(runs[i].setup_cpu_s);
    timed_cpu.push_back(runs[i].timed_cpu_s);
  }
  while (setup.size() < kMinSetups) {
    Tally tally;
    setup.push_back(run_setup(w, args.variant, tally));
    report.check(tally == runs.front().counts.setup, "a set-up-only build tallied differently");
  }
  const double rss = peak_rss_mb();  // before the twin runs
  std::vector<const RunResult*> all;
  for (const RunResult& r : runs) all.push_back(&r);
  check_counts(report, all);

  const RunResult twin = run_workload(w, Variant::kTwin, nullptr, true);
  const RunResult& first = runs.front();
  const evps::AccuracyResult acc = evps::compare_logs(twin.log, first.log);
  report.check(acc.truth_deliveries > 0, "the ground-truth twin delivered nothing");

  const Counts& c = first.counts;
  const Tally timed = c.timed();
  const double cpu = quantile(timed_cpu, kCpuQuantile);
  std::vector<double> latencies = first.latencies_ms;
  std::sort(latencies.begin(), latencies.end());
  const std::string samples = "samples=" + std::to_string(latencies.size());
  const std::string reps = "upper quartile of " + std::to_string(timed_cpu.size()) + " replays";

  std::cout << "replays " << timed_cpu.size() << " timed after " << first_timed
            << " warm-up, timed CPU s per replay:";
  for (const double s : timed_cpu) std::cout << " " << Report::format(s);
  std::cout << "\n";
  report.metric("pubs_per_cpu_s", ratio(static_cast<double>(c.pubs), cpu), "pubs/cpu_s", reps);
  report.metric("cpu_us_per_delivery", ratio(cpu * 1e6, static_cast<double>(c.client_deliveries)),
                "us", reps);
  report.metric("setup_s", quantile(setup, kCpuQuantile), "s",
                "upper quartile of " + std::to_string(setup.size()) + " set-ups");
  report.metric("peak_rss_mb", rss, "MB");
  report.metric("delivery_latency_p50_ms", nearest_rank(latencies, 0.50), "ms", samples);
  report.metric("delivery_latency_p99_ms", nearest_rank(latencies, 0.99), "ms", samples);
  report.metric("delivery_accuracy", acc.accuracy(), "ratio",
                "truth=" + std::to_string(acc.truth_deliveries) +
                    " fp=" + std::to_string(acc.false_positives) +
                    " fn=" + std::to_string(acc.false_negatives));
  Report::info("missed_delivery_ratio", ratio(acc.false_negatives, acc.truth_deliveries),
               "ratio", "staleness misses against the twin; can be 0, so not a gated metric");
  report.metric("sub_msgs_per_op", ratio(c.total.subscription_msgs, c.sub_ops), "msgs",
                "ops=" + std::to_string(c.sub_ops));
  report.metric("overlay_msgs_per_delivery", ratio(timed.messages, c.client_deliveries), "msgs",
                "deliveries=" + std::to_string(c.client_deliveries));
  report.metric("wire_bytes_per_delivery", ratio(timed.link_bytes, c.client_deliveries),
                "bytes");
  report.check(acc.accuracy() >= w.min_accuracy,
               "delivery accuracy " + Report::format(acc.accuracy()) + " below the floor " +
                   Report::format(w.min_accuracy));
  print_counts(c);
  report.print_result(attempted_ops(c), c.total.rejected);
  return report.correct() ? 0 : 1;
}

// --- per-layer run (--trace 1) -----------------------------------------------------

/// Span time sums of one traced replay.
struct SpanSums {
  double publish_self_s = 0;
  std::uint64_t publish_carried = 0;
  double subscribe_self_s = 0;
  std::uint64_t subscribe_spans = 0;
  double unsubscribe_self_s = 0;
  std::uint64_t unsubscribe_spans = 0;
  double var_update_s = 0;
  std::uint64_t var_update_spans = 0;
  double timer_s = 0;
  double delivery_s = 0;
  std::uint64_t delivered = 0;
  double timed_span_s = 0;
  std::uint64_t oversized_children = 0;
};

SpanSums sum_spans(const Tracer& tracer) {
  const auto kind = [](const char* name) {
    for (std::uint16_t k = 0; k <= kTimerSpan; ++k) {
      if (std::string(span_kind_name(k)) == name) return k;
    }
    throw std::logic_error(std::string("unknown span kind ") + name);
  };
  const std::uint16_t publish = kind("publish@broker"), publish_batch = kind("publish_batch@broker"),
                      subscribe = kind("subscribe@broker"), unsubscribe = kind("unsubscribe@broker"),
                      var_update = kind("var_update@broker"), delivery = kind("delivery@client"),
                      delivery_batch = kind("delivery_batch@client");
  SpanSums s;
  for (const Span& span : tracer.spans()) {
    const double dur = static_cast<double>(span.dur_ns) * 1e-9;
    // Both sides come from one steady clock; allow 1 ns for the double sums.
    if (span.children_s() > dur + 1e-9) ++s.oversized_children;
    const bool timed = span.phase == Phase::kTimed;
    if (timed) s.timed_span_s += dur;
    if (span.kind == subscribe) {
      s.subscribe_self_s += span.self_s();
      ++s.subscribe_spans;
    } else if (span.kind == unsubscribe) {
      s.unsubscribe_self_s += span.self_s();
      ++s.unsubscribe_spans;
    } else if (span.kind == var_update) {
      s.var_update_s += dur;
      ++s.var_update_spans;
    } else if (!timed) {
      continue;
    } else if (span.kind == publish || span.kind == publish_batch) {
      s.publish_self_s += span.self_s();
      s.publish_carried += span.carried;
    } else if (span.kind == delivery || span.kind == delivery_batch) {
      s.delivery_s += dur;
      s.delivered += span.carried;
    } else if (span.kind == kTimerSpan) {
      s.timer_s += dur;
    }
  }
  return s;
}

/// Median per-item CPU time, in microseconds, of `passes` timed passes of
/// `body` over `items` items.
template <typename Body>
double per_item_us(std::size_t items, int passes, Body&& body) {
  if (items == 0) return 0;
  std::vector<double> per_item;
  for (int p = 0; p < passes; ++p) {
    const double start = cpu_seconds();
    body();
    per_item.push_back((cpu_seconds() - start) * 1e6 / static_cast<double>(items));
  }
  return median(per_item);
}

/// Direct timings of the analysis and message layers on the workload's own
/// inputs, outside any overlay.
struct DirectTimings {
  double analyze_us_per_sub = 0;
  double covers_us_per_pair = 0;
  double serialize_us_per_pub = 0;
  std::size_t subs = 0, pairs = 0, pubs = 0;
};

DirectTimings time_layers(const Workload& w) {
  constexpr std::size_t kMaxItems = 4000;
  constexpr std::size_t kMaxPairs = 5000;
  constexpr int kPasses = 5;
  DirectTimings d;
  evps::VariableRegistry registry;
  for (const VarSpec& v : w.vars) registry.declare_range(v.name, v.lo, v.hi);
  std::vector<evps::Advertisement> adverts;
  for (std::size_t i = 0; i < w.adverts.size(); ++i) {
    adverts.emplace_back(evps::MessageId{i + 1}, evps::ClientId{1}, w.adverts[i]);
  }
  std::vector<const evps::Advertisement*> ads;
  if (w.config.routing == evps::RoutingMode::kAdvertisement) {
    for (const auto& a : adverts) ads.push_back(&a);
  }

  d.subs = std::min(w.subs.size(), kMaxItems);
  d.analyze_us_per_sub = per_item_us(d.subs, kPasses, [&] {
    for (std::size_t i = 0; i < d.subs; ++i) {
      static_cast<void>(evps::analyze_subscription(w.subs[i], registry, ads));
    }
  });

  // Ordered pairs of distinct subscriptions sharing a group.
  std::map<std::uint32_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < w.subs.size(); ++i) groups[w.sub_group[i]].push_back(i);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& [group, members] : groups) {
    for (const std::size_t a : members) {
      for (const std::size_t b : members) {
        if (a != b && pairs.size() < kMaxPairs) pairs.emplace_back(a, b);
      }
    }
  }
  d.pairs = pairs.size();
  d.covers_us_per_pair = per_item_us(d.pairs, kPasses, [&] {
    for (const auto& [a, b] : pairs) {
      static_cast<void>(evps::covers(w.subs[a], w.subs[b], registry, true));
    }
  });

  // The encoding the links use: batch frames of 64 when batching is on.
  d.pubs = std::min(w.pubs.size(), 4 * kMaxItems);
  const std::size_t batch = std::max<std::size_t>(1, w.config.link_batch_size);
  std::vector<const evps::Publication*> ptrs;
  for (std::size_t i = 0; i < d.pubs; ++i) ptrs.push_back(&w.pubs[i]);
  std::string arena;
  d.serialize_us_per_pub = per_item_us(d.pubs, kPasses, [&] {
    for (std::size_t i = 0; i < d.pubs; i += batch) {
      if (batch == 1) {
        static_cast<void>(evps::serialize(*ptrs[i]));
      } else {
        const std::size_t n = std::min(batch, d.pubs - i);
        evps::serialize_batch(std::span<const evps::Publication* const>(ptrs.data() + i, n), arena);
      }
    }
  });
  return d;
}

int run_per_layer(const Args& args, const Workload& w) {
  Report report;
  std::vector<RunResult> untraced, traced;
  std::vector<SpanSums> sums;
  std::unique_ptr<Tracer> last;
  double spent = 0;
  constexpr std::size_t kMinPairs = 2;
  while (true) {
    untraced.push_back(run_workload(w, args.variant, nullptr, false));
    auto tracer = std::make_unique<Tracer>();
    traced.push_back(run_workload(w, args.variant, tracer.get(), false));
    sums.push_back(sum_spans(*tracer));
    last = std::move(tracer);
    for (const RunResult* r : {&untraced.back(), &traced.back()}) {
      spent += r->setup_cpu_s + r->timed_cpu_s;
    }
    const std::size_t n = traced.size();
    if (args.reps != 0 ? n >= args.reps : (n >= kMinPairs && spent >= args.seconds)) break;
    if (n >= kMaxReps) break;
  }
  std::vector<const RunResult*> all;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    all.push_back(&untraced[i]);
    all.push_back(&traced[i]);
  }
  check_counts(report, all);

  const Counts& c = traced.front().counts;
  const Tally timed = c.timed();
  const auto over_traced = [&](auto per_replay) {
    std::vector<double> v;
    for (std::size_t i = 0; i < traced.size(); ++i) v.push_back(per_replay(traced[i], sums[i]));
    return median(v);
  };
  std::vector<double> untraced_cpu, traced_cpu;
  for (const RunResult& r : untraced) untraced_cpu.push_back(r.timed_cpu_s);
  for (const RunResult& r : traced) traced_cpu.push_back(r.timed_cpu_s);
  std::uint64_t oversized = 0;
  for (const SpanSums& s : sums) oversized += s.oversized_children;
  report.check(oversized == 0, std::to_string(oversized) + " spans have children longer than themselves");

  const DirectTimings direct = time_layers(w);
  const double pubs = static_cast<double>(c.pubs);
  const double matched = static_cast<double>(timed.publications);

  report.metric("sim.events_per_pub", ratio(static_cast<double>(timed.events), pubs), "count");
  report.metric("broker.publish_self_us", over_traced([](const RunResult&, const SpanSums& s) {
                  return ratio(s.publish_self_s * 1e6, static_cast<double>(s.publish_carried));
                }), "us");
  report.metric("broker.forwards_per_pub", ratio(static_cast<double>(timed.pubs_forwarded), pubs),
                "count");
  report.metric("broker.subscribe_self_us", over_traced([](const RunResult&, const SpanSums& s) {
                  return ratio(s.subscribe_self_s * 1e6, static_cast<double>(s.subscribe_spans));
                }), "us");
  report.metric("broker.unsubscribe_self_us", over_traced([](const RunResult&, const SpanSums& s) {
                  return ratio(s.unsubscribe_self_s * 1e6,
                               static_cast<double>(s.unsubscribe_spans));
                }), "us");
  report.metric("broker.var_update_us", over_traced([](const RunResult&, const SpanSums& s) {
                  return ratio(s.var_update_s * 1e6, static_cast<double>(s.var_update_spans));
                }), "us");
  report.metric("broker.timer_us_per_pub", over_traced([&](const RunResult&, const SpanSums& s) {
                  return ratio(s.timer_s * 1e6, pubs);
                }), "us");
  report.metric("broker.link_fill",
                ratio(timed.link_events, timed.link_batch_msgs + timed.link_single_msgs), "ratio");
  report.metric("broker.link_barrier_share",
                ratio(timed.barrier_flushes,
                      timed.size_flushes + timed.deadline_flushes + timed.barrier_flushes),
                "ratio");
  report.metric("broker.delivery_us", over_traced([](const RunResult&, const SpanSums& s) {
                  return ratio(s.delivery_s * 1e6, static_cast<double>(s.delivered));
                }), "us");
  report.metric("evolving.lazy_eval_us_per_pub", over_traced([&](const RunResult& r, const SpanSums&) {
                  return ratio(r.timed_engine.lazy_eval * 1e6, matched);
                }), "us");
  report.metric("evolving.lazy_evals_per_pub",
                ratio(static_cast<double>(timed.lazy_evaluations), matched), "count");
  report.metric("evolving.cache_hit_ratio",
                ratio(c.total.cache_hits, c.total.cache_hits + c.total.cache_misses), "ratio");
  report.metric("evolving.maintenance_us_per_evolution",
                over_traced([&](const RunResult& r, const SpanSums&) {
                  return ratio(r.timed_engine.maintenance * 1e6,
                               static_cast<double>(timed.evolutions));
                }), "us");
  report.metric("evolving.evolutions_per_pub", ratio(static_cast<double>(timed.evolutions), pubs),
                "count");
  report.metric("matching.match_us_per_pub", over_traced([&](const RunResult& r, const SpanSums&) {
                  return ratio(r.timed_engine.match * 1e6, static_cast<double>(timed.match_calls));
                }), "us");
  report.metric("matching.population", static_cast<double>(c.population), "count");
  report.metric("analysis.analyze_us_per_sub", direct.analyze_us_per_sub, "us",
                "subs=" + std::to_string(direct.subs));
  report.metric("analysis.covers_us_per_pair", direct.covers_us_per_pair, "us",
                "pairs=" + std::to_string(direct.pairs));
  report.metric("analysis.cover_pairs_per_sub", ratio(c.total.cover_pairs, c.total.subscribes),
                "count");
  report.metric("analysis.covered_share", ratio(c.total.covered, c.total.cover_pairs), "ratio");
  report.metric("analysis.suppressed_per_op", ratio(c.total.suppressed, c.sub_ops), "count");
  report.metric("analysis.resubscribes_per_op",
                ratio(c.total.resubscribes + c.total.demote_unsubscribes, c.sub_ops), "count");
  report.metric("message.bytes_per_event", ratio(timed.link_bytes, timed.link_events), "bytes");
  report.metric("message.serialize_us_per_pub", direct.serialize_us_per_pub, "us",
                "pubs=" + std::to_string(direct.pubs));
  report.metric("trace.overhead", median(traced_cpu) / median(untraced_cpu) - 1.0, "ratio",
                "traced over untraced timed-phase CPU, " + std::to_string(traced.size()) +
                    " pairs");
  report.metric("trace.coverage", over_traced([](const RunResult& r, const SpanSums& s) {
                  return ratio(s.timed_span_s, r.timed_wall_s);
                }), "ratio");

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed << ",\"build_type\":\""
        << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\"" << compiler() << "\",\"nproc\":"
        << online_cpus() << ",\"cpu\":\"" << cpu_model() << "\",\"params\":{";
    for (std::size_t i = 0; i < w.params.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\"" << w.params[i].first << "\":\"" << w.params[i].second
          << "\"";
    }
    out << "}}\n";
    last->write_jsonl(out);
    report.check(static_cast<bool>(out), "could not write " + args.trace_out);
    std::cout << "trace " << last->spans().size() << " spans written to " << args.trace_out
              << "\n";
  }
  print_counts(c);
  report.print_result(attempted_ops(c), c.total.rejected);
  return report.correct() ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (kSanitized || !kOptimized) {
    std::cerr << "evps_perfbench: refusing to measure a "
              << (kSanitized ? "sanitizer" : "non-optimised") << " build\n";
    return 2;
  }
  const Workload w = make_workload(args.workload, args.seed);
  std::cout << "perfbench workload=" << w.name << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " variant=" << variant_name(args.variant)
            << "\n";
  std::cout << "env build_type=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << compiler()
            << "\" nproc=" << online_cpus() << " cpu=\"" << cpu_model() << "\"\n";
  std::cout << "params";
  for (const auto& [key, value] : w.params) std::cout << " " << key << "=" << value;
  std::cout << " subscriptions=" << w.subs.size() << " publications=" << w.pubs.size()
            << " inputs=" << w.ops.size() << "\n";
  return args.trace ? run_per_layer(args, w) : run_end_to_end(args, w);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "evps_perfbench: " << e.what() << "\n";
    return 2;
  }
}
