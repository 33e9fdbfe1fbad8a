// Defense selection: the per-backend parameter blocks, the registry and
// make().
//
// The backend interface itself (Defense, CostSnapshot, Wiring) lives in
// defense/backend.h. The two accusing backends (LITEWORP's
// lite::LocalMonitor and the z-score detector) implement
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

#include "defense/backend.h"
#include "leash/leash.h"
#include "liteworp/monitor.h"
#include "obs/event.h"

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

/// Instantiates the backend named by config.name. Throws
/// std::invalid_argument on unknown names (listing the registry).
std::unique_ptr<Defense> make(const DefenseConfig& config,
                              const Wiring& wiring);

}  // namespace lw::defense
