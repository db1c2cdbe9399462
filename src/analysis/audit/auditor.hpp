// Whole-overlay static auditor (DESIGN.md §15).
//
// The OverlayAuditor verifies global routing-state invariants over a
// quiesced OverlaySnapshot by abstract interpretation in the ValueSet /
// interval domain (analysis/covering.hpp) — the same machinery the brokers
// used to justify their covering suppressions, re-run as an independent
// proof over the final state:
//
//   1. delivery completeness — for every admitted subscription S and every
//      broker E where a publication satisfying S could enter (every broker
//      under flooding; advertisement origins whose advert intersects S under
//      advertisement routing), a forwarding path E → home(S) → subscriber
//      exists: at every hop some installed subscription points at the next
//      hop and either IS S or provably covers() it. The per-hop coverers
//      form the violation's witness chain.
//   2. forest well-formedness — the covering forest is a depth-≤1 acyclic
//      forest consistent with the engine's installed set, every parent
//      edge re-proves covers(parent, child), and demotion/promotion
//      bookkeeping matches the engine-side DedupTable refcounts (canonical
//      members installed, non-canonical suppressed, groups re-derivable
//      from the installed table).
//   3. quiescence — no stranded link-batcher slot past a barrier.
//   4. no ghost state — every matcher slot, lazy-storage entry and covering
//      node traces back to a live installed subscription, and conversely
//      every installed subscription has exactly the physical footprint its
//      engine's install rules mandate.
//
// Soundness of the covering re-proof: kCovers verdicts are monotone in the
// registry (declared ranges are fixed, histories append-only), so any
// suppression a broker justified earlier must still be provable from the
// final variable state — failure to re-prove is a genuine violation, never
// staleness of the audit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/audit/snapshot.hpp"

namespace evps::audit {

enum class Invariant : std::uint8_t {
  kDeliveryCompleteness,  ///< a matching publication cannot reach a subscriber
  kForest,                ///< covering forest malformed or out of sync
  kQuiescence,            ///< stranded batch buffer past a barrier
  kGhostState,            ///< physical state with no live owner (or missing)
  kTopology,              ///< overlay graph inconsistent (asymmetric/cyclic)
};

[[nodiscard]] const char* to_string(Invariant inv) noexcept;

struct Violation {
  Invariant invariant = Invariant::kDeliveryCompleteness;
  std::string broker;  ///< broker name ("" for overlay-level findings)
  SubscriptionId sub = SubscriptionId::invalid();
  std::string message;
  /// Hop-by-hop justification verified before the failure (delivery) or the
  /// evidence trail of the finding (forest/ghost), lint-style.
  std::vector<std::string> witness;
};

struct AuditReport {
  std::vector<Violation> violations;
  std::size_t brokers_audited = 0;
  std::size_t subscriptions_audited = 0;
  std::size_t paths_checked = 0;
  std::size_t witnesses_checked = 0;

  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
  [[nodiscard]] bool has(Invariant inv) const noexcept;
  [[nodiscard]] std::size_t count(Invariant inv) const noexcept;

  /// Lint-style text: one "broker: invariant: message" block per violation
  /// with its witness chain indented, then a summary line.
  [[nodiscard]] std::string format() const;
  /// Machine-readable report (the evps-audit --json schema).
  void to_json(std::ostream& os) const;
};

struct AuditOptions {
  /// Check invariant 3. Disable to audit mid-run snapshots where buffered
  /// publications are legitimate (no barrier has been reached).
  bool check_quiescence = true;
  /// Re-prove covers() on every forest parent edge and every suppressed
  /// forwarding hop. Disable for a fast structural-only pass.
  bool check_covering_proofs = true;
};

class OverlayAuditor {
 public:
  explicit OverlayAuditor(AuditOptions options = {}) : options_(options) {}

  /// Audit `snap`. The snapshot does not need to be normalized.
  [[nodiscard]] AuditReport audit(const OverlaySnapshot& snap) const;

 private:
  AuditOptions options_;
};

}  // namespace evps::audit
