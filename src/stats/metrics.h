// Run metrics: the output parameters of the paper's evaluation.
//
// A MetricsCollector is an event sink on the routing and attack layers of
// the run's obs::Recorder. It classifies those events, and the run's
// per-accused fold (forensics::IncidentBuilder), against ground truth (the
// deployment geometry and the malicious nodes) that nodes do not have.
// Output parameters match Section 6: routes through the wormhole,
// isolation latency, and false-alarm accounting. Plain per-kind counts are
// the Recorder's tally (obs::Recorder::count). Data originations are not
// an event: each node's routing layer counts its own
// (routing::OnDemandRouting::data_originated).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "forensics/incident.h"
#include "obs/recorder.h"
#include "packet/packet.h"
#include "topology/disc_graph.h"

namespace lw::stats {

/// Isolation progress of one malicious node, read from its incident.
struct Isolation {
  NodeId node = kInvalidNode;
  /// First local detection by any guard.
  std::optional<Time> first_detection;
  /// Distinct nodes that revoked it (detecting guards, isolating nodes).
  std::size_t revoked = 0;
  /// Honest ground-truth neighbors that must revoke for complete isolation.
  std::size_t required = 0;
  /// The latest first revocation among the required neighbors (the first
  /// revocation when there are none); nullopt until all of them revoked.
  std::optional<Time> complete;
};

/// Accusation counts of the run, split against the ground truth.
struct Accusations {
  std::uint64_t suspicions_fabrication = 0;
  std::uint64_t suspicions_drop = 0;
  /// Statistical suspicions raised by the Z-score backend (0 under the
  /// evidence-based LITEWORP monitor).
  std::uint64_t suspicions_anomaly = 0;
  /// Suspicions whose suspect is actually honest (channel-noise artifacts).
  std::uint64_t false_suspicions = 0;
  /// Local detections of honest nodes: a single guard's noise conviction,
  /// severing one link (the per-guard false alarm of the analysis).
  std::uint64_t false_local_detections = 0;
  /// Gamma-confirmed isolations of honest nodes — the network-level false
  /// alarm of Figure 6(b). Must be 0 at the calibrated operating point.
  std::uint64_t false_isolations = 0;
};

class MetricsCollector : public obs::EventSink {
 public:
  /// The layers whose events the collector classifies.
  static constexpr std::uint32_t kLayers =
      obs::layer_bit(obs::Layer::kRouting) |
      obs::layer_bit(obs::Layer::kAttack);

  /// `graph` and `malicious` are ground truth used only for classification;
  /// `incidents` is the run's per-accused fold of the monitor events.
  MetricsCollector(const topo::DiscGraph& graph, std::vector<NodeId> malicious,
                   const forensics::IncidentBuilder& incidents);

  void on_event(const obs::Event& event) override;

  // ---- Ground-truth classification ----
  /// Routes containing a link that does not exist physically (the wormhole
  /// illusion: a tunneled or relayed hop).
  std::uint64_t wormhole_routes = 0;
  /// Routes that pass through at least one malicious node (superset).
  std::uint64_t routes_via_malicious = 0;
  /// Routes where a malicious node is a TRANSIT hop (neither source nor
  /// destination) — the routes an attacker actually captured.
  std::uint64_t routes_via_malicious_transit = 0;

  /// Suspicions, local detections and isolations from the incident fold,
  /// the false ones counted against the malicious set.
  Accusations accusations() const;

  // ---- Event times (for time-series post-processing) ----
  // These grow one entry per delivered/dropped packet for the whole run
  // (reports copy them out at the end).
  std::vector<Time> drop_times;
  std::vector<Time> wormhole_route_times;
  /// End-to-end delivery latency of each delivered data packet.
  std::vector<Duration> delivery_latencies;
  /// Running sum of delivery_latencies, in delivery order (the telemetry
  /// series reads it at every bucket boundary).
  double delivery_latency_sum = 0.0;

  /// Mean end-to-end data latency (0 if nothing delivered).
  double mean_delivery_latency() const;
  /// p-th percentile latency (p in [0,100]; 0 if nothing delivered).
  double latency_percentile(double p) const;

  // ---- Per-malicious isolation ----
  /// One entry per malicious node, ascending by id.
  std::vector<Isolation> isolation() const;

  bool is_malicious(NodeId id) const {
    return std::binary_search(malicious_.begin(), malicious_.end(), id);
  }

  /// True when every malicious node has been completely isolated.
  bool all_malicious_isolated() const {
    return malicious_isolated_count() == malicious_.size();
  }

  /// Number of malicious nodes completely isolated.
  std::size_t malicious_isolated_count() const;

  /// Max over malicious nodes of (complete-isolation time - attack_start);
  /// nullopt if any malicious node is not completely isolated.
  std::optional<Duration> isolation_latency(Time attack_start) const;

  /// Cumulative count of events in `times` occurring at or before `t`.
  static std::uint64_t cumulative_at(const std::vector<Time>& times, Time t);

 private:
  void on_route_established(Time t, const pkt::NodeList& path);

  const topo::DiscGraph& graph_;
  /// Ascending.
  std::vector<NodeId> malicious_;
  const forensics::IncidentBuilder& incidents_;
};

}  // namespace lw::stats
