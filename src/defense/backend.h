// The wormhole-defense backend interface.
//
// Every countermeasure the repo evaluates — LITEWORP's guard-based local
// monitoring (lite::LocalMonitor), packet leashes, the Z-score
// neighbor-table detector, and the undefended baseline — plugs into one
// interface with uniform hooks:
//
//   observe(frame)    promiscuous tap: every frame the radio decodes, plus
//                     every watched control frame the node itself sends;
//   admit(frame)      receiver-side verdict on a routed frame BEFORE it
//                     reaches the routing layer (false = drop);
//   handle_alert()    backend-specific control traffic (ALERT frames);
//   cost()            uniform overhead and state accounting; the one way
//                     benches, telemetry and examples read backend state.
//
// This header carries no backend parameters, so a backend's own header
// (liteworp/monitor.h) can derive from Defense; the parameter blocks, the
// registry and make() live in defense/defense.h.
#pragma once

#include <algorithm>
#include <cstdint>

#include "neighbor/admission.h"
#include "neighbor/neighbor_table.h"
#include "node/node_env.h"
#include "obs/event.h"
#include "packet/packet.h"
#include "routing/routing.h"

namespace lw::defense {

/// Uniform per-node overhead snapshot, summed network-wide into RunResult.
/// CPU cost is reported as deterministic work counts (frames examined,
/// admission verdicts) rather than wall-clock, so sweeps stay comparable
/// across machines and thread counts.
struct CostSnapshot {
  /// Frames fed through the promiscuous observe() tap.
  std::uint64_t frames_observed = 0;
  /// Routed frames put through the admission verdict.
  std::uint64_t admission_checks = 0;
  std::uint64_t admission_rejects = 0;
  /// Defense-originated control frames (ALERTs) and their wire bytes.
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  /// Peak-independent live storage at snapshot time (paper cost model).
  std::uint64_t storage_bytes = 0;
  /// Live watch-buffer entries at snapshot time: transmit records plus
  /// drop watches (zero for backends without a watch buffer).
  std::uint64_t watch_entries = 0;
  /// Watch-buffer high-water mark; accumulate() keeps the largest.
  std::uint64_t peak_watch_entries = 0;

  void accumulate(const CostSnapshot& other) {
    frames_observed += other.frames_observed;
    admission_checks += other.admission_checks;
    admission_rejects += other.admission_rejects;
    control_messages += other.control_messages;
    control_bytes += other.control_bytes;
    storage_bytes += other.storage_bytes;
    watch_entries += other.watch_entries;
    peak_watch_entries = std::max(peak_watch_entries, other.peak_watch_entries);
  }
};

/// Everything a backend may wire into. The table and routing references
/// outlive the backend.
struct Wiring {
  node::NodeEnv& env;
  nbr::NeighborTable& table;
  routing::OnDemandRouting& routing;
};

class Defense {
 public:
  virtual ~Defense() = default;

  virtual obs::DefenseTag tag() const = 0;
  const char* name() const { return obs::to_string(tag()); }

  /// Node crashed: wipe all volatile detection state.
  virtual void reset() {}
  /// Own (GPS-style) location, needed by the geographical leash.
  virtual void set_own_position(double /*x*/, double /*y*/) {}

  /// Promiscuous tap: every frame the radio decoded, plus every watched
  /// control frame this node transmits itself.
  virtual void observe(const pkt::Packet& /*packet*/) {}
  /// Receiver-side verdict on a routed frame (REQ/REP/DATA) before the
  /// routing layer sees it. False = drop the frame.
  virtual bool admit(const pkt::Packet& /*packet*/) { return true; }
  /// An ALERT frame reached this node.
  virtual void handle_alert(const pkt::Packet& /*packet*/) {}
  /// Compromised-guard fault injection: accuse `victim` with no evidence.
  /// Backends without an accusation channel ignore it.
  virtual void emit_false_alert(NodeId /*victim*/) {}

  virtual CostSnapshot cost() const { return {}; }

  /// Admission outcome counters (all zeros for backends that admit
  /// unconditionally).
  virtual const nbr::AdmissionStats& admission_stats() const {
    static const nbr::AdmissionStats kNoChecks;
    return kNoChecks;
  }
};

}  // namespace lw::defense
