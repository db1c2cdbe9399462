// Input generators for the three benchmark workloads.
//
// A workload is a deployment (brokers, client links, broker configuration)
// plus a complete, time-ordered list of inputs generated from the seed:
// advertisements, subscriptions, unsubscriptions, variable updates and
// publications. Nothing is generated while the overlay runs — the replay
// (replay.hpp) only hands these pre-built objects to the public client and
// broker API at their scheduled virtual instants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/broker.hpp"
#include "common/sim_time.hpp"
#include "message/predicate.hpp"
#include "message/publication.hpp"
#include "message/subscription.hpp"

namespace perfbench {

using evps::Duration;
using evps::SimTime;

struct BrokerSpec {
  std::string name;
  int parent = -1;  ///< index of the broker this one links to (-1: none)
  Duration latency = Duration::zero();
};

struct ClientSpec {
  std::string name;
  std::size_t broker = 0;
  Duration latency = Duration::zero();
};

struct VarSpec {
  std::string name;
  double lo = 0;
  double hi = 0;
};

enum class OpKind : std::uint8_t { kAdvertise, kSubscribe, kUnsubscribe, kPublish, kSetVariable };

/// One input. `index` selects the payload: adverts[] for kAdvertise, subs[]
/// for kSubscribe and kUnsubscribe (the subscription to withdraw), pubs[]
/// for kPublish and vars[] for kSetVariable.
struct Op {
  SimTime at;
  OpKind kind = OpKind::kPublish;
  std::uint32_t client = 0;
  std::uint32_t index = 0;
  double value = 0;
};

struct Workload {
  std::string name;
  std::vector<BrokerSpec> brokers;
  evps::BrokerConfig config;
  /// Broker on which kSetVariable inputs are applied (they flood from it).
  std::size_t variable_broker = 0;
  std::vector<ClientSpec> clients;
  std::vector<VarSpec> vars;
  std::vector<std::vector<evps::Predicate>> adverts;
  std::vector<evps::Subscription> subs;
  /// Per subscription: the group whose members may cover each other
  /// (cluster, stock or owning client). Drives the direct covers() timing.
  std::vector<std::uint32_t> sub_group;
  std::vector<evps::Publication> pubs;
  /// Sorted by time; inputs sharing an instant keep their generation order.
  std::vector<Op> ops;
  /// Inputs before this instant form the set-up phase; the rest are timed.
  SimTime setup_end;
  SimTime end;
  /// Lowest delivery accuracy against the ground-truth twin that still
  /// counts as correct output for this workload.
  double min_accuracy = 1.0;
  /// Parameters printed next to every result.
  std::vector<std::pair<std::string, std::string>> params;
};

/// Names accepted by make_workload, in the order the benchmark lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench
