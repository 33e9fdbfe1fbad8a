// Pluggable wormhole-defense backends.
//
// Every countermeasure the repo evaluates — LITEWORP's guard-based local
// monitoring, packet leashes, the Z-score neighbor-table detector, and the
// undefended baseline — plugs into one interface with uniform hooks:
//
//   observe(frame)    promiscuous tap: every frame the radio decodes, plus
//                     every watched control frame the node itself sends;
//   admit(frame)      receiver-side verdict on a routed frame BEFORE it
//                     reaches the routing layer (false = drop);
//   handle_alert()    backend-specific control traffic (ALERT frames);
//   cost()            uniform overhead accounting for head-to-head benches.
//
// The two accusing backends (LITEWORP and the z-score detector) implement
// handle_alert()/emit_false_alert() through one lite::AlertChannel
// (liteworp/alert_channel.h), so their alert protocol is the same code.
//
// The scenario layer selects a backend by name through defense::make(); the
// per-backend parameter blocks live in DefenseConfig, validated alongside
// the rest of ExperimentConfig. Detection outcomes flow out as def-tagged
// mon.* events on the run's event bus, which feed both the ground-truth
// classification (stats::MetricsCollector) and forensics attribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "leash/leash.h"
#include "liteworp/monitor.h"
#include "neighbor/admission.h"
#include "node/node_env.h"
#include "obs/event.h"
#include "routing/routing.h"

namespace lw::defense {

/// Z-score neighbor-table detector parameters (after arXiv 2505.09405).
///
/// The detector keeps, per first-hop neighbor, how many of its control
/// forwards announced a previous hop whose flow this node never overheard
/// at all ("anomalies"). A wormhole endpoint replaying tunneled control
/// traffic anomalizes nearly every forward; honest neighbors only do so on
/// rare collision losses. The per-neighbor anomaly RATE is then scored
/// against the other neighbors' rates (leave-one-out z-score): conviction
/// needs the neighbor to be a statistical outlier among its peers, not just
/// noisy in absolute terms. Convictions go out through the shared alert
/// protocol, whose values (gamma included) come from lite::AlertParams.
struct ZScoreParams : lite::AlertParams {
  /// Convict when (rate - mean_others) / std_others reaches this.
  double z_threshold = 2.5;
  /// Judged forwards a neighbor needs before its rate is trusted (both as
  /// suspect and as a peer in the baseline).
  int min_samples = 8;
  /// Qualified neighbors (suspect included) needed before any conviction:
  /// a z-score against one or two peers is numerology.
  int min_peers = 3;
  /// Absolute floor on the suspect's anomaly rate. The z-score alone would
  /// convict a 2%-anomaly neighbor in a dead-quiet neighborhood; a real
  /// wormhole endpoint anomalizes most of what it forwards.
  double min_anomaly_rate = 0.3;
  /// Floor on the peer-rate standard deviation, so a perfectly clean
  /// neighborhood (std 0) does not make the first collision infinite-sigma.
  double std_floor = 0.05;
  /// TTL of transmit records backing the "never heard this flow" test.
  Duration transmit_record_ttl = 10.0;
};

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

  void accumulate(const CostSnapshot& other) {
    frames_observed += other.frames_observed;
    admission_checks += other.admission_checks;
    admission_rejects += other.admission_rejects;
    control_messages += other.control_messages;
    control_bytes += other.control_bytes;
    storage_bytes += other.storage_bytes;
  }
};

/// Defense selection plus every backend's parameter block. Exactly one
/// backend (named by `name`) is active per run; the inactive blocks ride
/// along untouched so sweeps can flip backends without losing tuning.
struct DefenseConfig {
  /// Registered backend name: "liteworp", "leash", "zscore", or "none".
  std::string name = "liteworp";
  lite::LiteworpParams liteworp;
  leash::LeashParams leash;
  ZScoreParams zscore;

  /// Rejects unknown backend names and out-of-range parameters of the
  /// SELECTED backend with actionable messages (std::invalid_argument).
  void validate() const;
};

/// Names of all registered backends, in registry order.
std::vector<std::string> registry();
/// True if `name` is a registered backend.
bool known(const std::string& name);
/// The trace tag of a registered backend; throws on unknown names.
obs::DefenseTag tag_for(const std::string& name);

/// Sets one backend parameter from its dotted CLI key, e.g.
/// "liteworp.detection_confidence", "zscore.z_threshold", "leash.mode".
/// Throws std::invalid_argument on unknown keys or unparsable values.
void set_option(DefenseConfig& config, const std::string& key,
                const std::string& value);

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

  /// Node deployed (or redeployed after crash recovery).
  virtual void start() {}
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
  virtual const nbr::AdmissionStats& admission_stats() const;

  /// The wrapped LITEWORP monitor, when this backend has one (cost probes
  /// and guard-level introspection in benches/tests); null otherwise.
  virtual lite::LocalMonitor* local_monitor() { return nullptr; }
  const lite::LocalMonitor* local_monitor() const {
    return const_cast<Defense*>(this)->local_monitor();
  }
};

/// Instantiates the backend named by config.name. Throws
/// std::invalid_argument on unknown names (listing the registry).
std::unique_ptr<Defense> make(const DefenseConfig& config,
                              const Wiring& wiring);

}  // namespace lw::defense
