// Run metrics: the output parameters of the paper's evaluation.
//
// A MetricsCollector is an event sink on the routing, monitoring and attack
// layers of the run's obs::Recorder. It classifies those events against
// ground truth (the deployment geometry and the set of malicious nodes)
// that individual nodes do not have, and keeps what needs event fields:
// suspicion kinds, event times and delivery latencies. Output parameters
// match Section 6: routes through the wormhole, isolation latency, plus
// false-alarm accounting for the analysis comparisons. Plain per-kind
// counts (deliveries, drops, discoveries, detections, isolations) are the
// Recorder's tally (obs::Recorder::count). Data originations are not an
// event: each node's routing layer counts its own
// (routing::OnDemandRouting::data_originated).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "obs/recorder.h"
#include "packet/packet.h"
#include "topology/disc_graph.h"

namespace lw::stats {

/// Isolation progress of one malicious node.
struct IsolationRecord {
  /// First local detection by any guard.
  std::optional<Time> first_detection;
  /// node -> time it revoked the malicious node.
  std::map<NodeId, Time> revoked_by;
  /// Honest ground-truth neighbors that must revoke for complete isolation.
  std::set<NodeId> required;
  /// Time the last required neighbor revoked.
  std::optional<Time> complete;
};

class MetricsCollector : public obs::EventSink {
 public:
  /// The layers whose events the collector classifies.
  static constexpr std::uint32_t kLayers =
      obs::layer_bit(obs::Layer::kRouting) |
      obs::layer_bit(obs::Layer::kMonitor) |
      obs::layer_bit(obs::Layer::kAttack);

  /// `graph` and `malicious` are ground truth used only for classification.
  MetricsCollector(const topo::DiscGraph& graph, std::vector<NodeId> malicious);

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
  const std::map<NodeId, IsolationRecord>& isolation() const {
    return isolation_;
  }

  bool is_malicious(NodeId id) const { return malicious_set_.count(id) != 0; }

  /// True when every malicious node has been completely isolated.
  bool all_malicious_isolated() const;

  /// Number of malicious nodes completely isolated.
  std::size_t malicious_isolated_count() const;

  /// Max over malicious nodes of (complete-isolation time - attack_start);
  /// nullopt if any malicious node is not completely isolated.
  std::optional<Duration> isolation_latency(Time attack_start) const;

  /// Cumulative count of events in `times` occurring at or before `t`.
  static std::uint64_t cumulative_at(const std::vector<Time>& times, Time t);

 private:
  void on_route_established(Time t, const pkt::NodeList& path);
  void on_suspicion(NodeId suspect, std::uint8_t detail);
  void on_local_detection(Time t, NodeId guard, NodeId suspect);
  void on_isolation(Time t, NodeId node, NodeId suspect);
  void note_revocation(Time t, NodeId by, NodeId suspect);

  const topo::DiscGraph& graph_;
  std::vector<NodeId> malicious_;
  std::unordered_set<NodeId> malicious_set_;
  std::map<NodeId, IsolationRecord> isolation_;
};

}  // namespace lw::stats
