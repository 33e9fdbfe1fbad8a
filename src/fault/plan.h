// Deterministic fault plan: the declarative description of every adversity
// a run injects (Section V-VI robustness analysis territory).
//
// A FaultPlan is part of ExperimentConfig, so faults are seeded and
// reproducible like everything else: scenario::Network schedules each
// fault as an ordinary simulator event, traces stay byte-identical per
// seed at any thread count, and an empty plan is indistinguishable from no
// fault subsystem at all (zero extra events, zero extra RNG draws).
#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::fault {

/// Scheduled node crash: at `at` the radio goes silent, every timer is
/// cancelled and all protocol state is wiped. With `recover_at` >= 0 the
/// node reboots there and re-enters through the dynamic-join protocol,
/// exactly like a late-deployed node.
struct CrashFault {
  NodeId node = kInvalidNode;
  Time at = 0.0;
  /// < 0 means the node never comes back.
  Time recover_at = -1.0;
};

/// Transient link degradation: during [from, until) frames between `a` and
/// `b` (both directions) suffer `extra_loss` on top of the channel's P_C.
/// 1.0 is a hard outage (the signal simply never arrives).
struct LinkFault {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Time from = 0.0;
  Time until = 0.0;
  double extra_loss = 1.0;
};

/// Guard compromise / framing: starting at `start`, `guards` of the
/// victim's honest neighbors turn coat and emit authenticated false alerts
/// accusing the victim — the attack the paper's gamma (detection
/// confidence) bar is designed to absorb. Each compromised guard sends
/// `alerts_per_guard` alerts spaced `gap` apart.
struct FramingFault {
  NodeId victim = kInvalidNode;
  std::size_t guards = 1;
  Time start = 0.0;
  int alerts_per_guard = 3;
  Duration gap = 5.0;
};

/// In-flight corruption: during [from, until), frames arriving at `node`
/// have their authentication tag bytes flipped with `probability`. The
/// receiver stack must shed these at HMAC verification — never crash in a
/// parser.
struct CorruptionFault {
  NodeId node = kInvalidNode;
  Time from = 0.0;
  Time until = 0.0;
  double probability = 1.0;
};

struct FaultPlan {
  std::vector<CrashFault> crashes;
  std::vector<LinkFault> links;
  std::vector<FramingFault> framings;
  std::vector<CorruptionFault> corruptions;

  // ---- Hardening knobs (active whenever the plan is non-empty) ----
  /// A first-hop neighbor not heard from for this long is aged out of the
  /// table (and becomes re-challengeable via dynamic join). Generous by
  /// default: at lambda = 1/20 s a live neighbor is silent for 120 s with
  /// probability well under 1%.
  Duration neighbor_age_timeout = 120.0;
  /// Aging sweep cadence.
  Duration neighbor_age_sweep_interval = 15.0;

  /// True when the plan injects nothing; the zero-cost-when-disabled
  /// guarantee hangs off this test.
  bool empty() const {
    return crashes.empty() && links.empty() && framings.empty() &&
           corruptions.empty();
  }

  /// Rejects plans that reference nodes outside [0, node_count), overlap
  /// crash windows on the same node, or carry nonsensical windows and
  /// probabilities. Throws std::invalid_argument with actionable messages.
  void validate(std::size_t node_count) const;
};

}  // namespace lw::fault
