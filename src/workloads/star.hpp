// Star workloads: one advertisement-routed core + N edge star, driven by a
// fully pre-generated input schedule.
//
// A StarWorkload is plain data — declared variables, one advertisement,
// subscriptions with their edge, timed unsubscriptions, variable updates
// and publications — and run_star() is the one replay for it. The
// game_rotated sweep scenario (workloads/sweep.hpp), the routing_covering
// bench and the overlay_batch bench all describe their inputs this way, so
// runs that differ only in BrokerConfig see exactly the same inputs and can
// be compared by delivery_fingerprint() (metrics/accuracy.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "broker/overlay.hpp"

namespace evps {

struct StarWorkload {
  struct Variable {
    std::string name;
    double lo = 0, hi = 0;  ///< declared range, on every broker
    double value = 0;       ///< initial value, set at the core
  };
  struct Sub {
    std::string text;
    std::size_t edge = 0;  ///< edge broker its client attaches to
  };
  struct Unsub {
    double t = 0;
    std::size_t sub = 0;  ///< index into subs
  };
  struct Update {
    double t = 0;
    std::string name;
    double value = 0;
  };
  /// Publications sharing an instant form a burst.
  struct Pub {
    double t = 0;
    std::string text;
  };

  std::size_t edges = 3;
  Duration client_latency = Duration::millis(2);
  std::vector<Variable> vars;
  /// Advertised publication space, sent by the publisher at 0 s.
  std::string adv;
  /// Subscription i is sent at 1 + 0.01·i s by its own client.
  std::vector<Sub> subs;
  std::vector<Unsub> unsubs;
  /// Variable updates, applied at the core.
  std::vector<Update> updates;
  /// Publications of the one publisher, attached to edge 0.
  std::vector<Pub> pubs;
  double end = 20.0;  ///< seconds
};

/// Replay `w` on the empty `overlay` and run its simulator to `w.end`.
///
/// Builds the core + `w.edges` star with 5 ms broker links, or with
/// `central` one broker and zero-latency client links (the ground-truth
/// twin). Every broker declares the workload's variables. Subscriber i is
/// client `zone<i>`; the publisher is created after all subscribers, so
/// ClientIds, and with them publication MessageIds, line up between the
/// star and its central twin. Every input is scheduled up front in a fixed
/// order (advertisement, subscriptions, updates, publications,
/// unsubscriptions), so inputs sharing an instant always fire in that
/// order. Inputs left after `w.end` refer to this call's state: afterwards,
/// read the overlay but do not run its simulator further.
void run_star(const StarWorkload& w, const BrokerConfig& config, bool central, Overlay& overlay);

// --- game_rotated ------------------------------------------------------------
//
// Rotated-coordinate moving zones (DESIGN.md §16): interest zones in
// u = x + y, w = x - y coordinates around per-cluster moving centres
// (cu<k>, cw<k>). Each cluster is kRotatedZonesPerCluster consecutive
// subscriptions: a wide coverer first, then narrower zones around the same
// centre, some provably inside it — only the relational (octagon) domain
// can prove those coverings, since the centres are variables — and some
// poking out. Centres drift every 2 s; the publication feed is mostly
// hotspot events near a centre. Subscriptions go round-robin over 3 edges.

inline constexpr std::size_t kRotatedZonesPerCluster = 4;

/// The game_rotated workload for `seed` with `clusters` clusters.
[[nodiscard]] StarWorkload make_rotated(std::uint64_t seed, std::size_t clusters);

}  // namespace evps
