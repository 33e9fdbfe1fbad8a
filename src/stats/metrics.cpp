#include "stats/metrics.h"

#include <algorithm>

#include "obs/metrics_registry.h"

namespace lw::stats {

MetricsCollector::MetricsCollector(const topo::DiscGraph& graph,
                                   std::vector<NodeId> malicious)
    : graph_(graph),
      malicious_(std::move(malicious)),
      malicious_set_(malicious_.begin(), malicious_.end()) {
  for (NodeId m : malicious_) {
    IsolationRecord record;
    for (NodeId neighbor : graph_.neighbors(m)) {
      if (malicious_set_.count(neighbor) == 0) record.required.insert(neighbor);
    }
    isolation_.emplace(m, std::move(record));
  }
}

void MetricsCollector::on_event(const obs::Event& event) {
  switch (event.kind) {
    case obs::EventKind::kRouteDeliver:
      delivery_latencies.push_back(event.value);  // now - created_at
      delivery_latency_sum += event.value;
      break;
    case obs::EventKind::kRouteEstablished:
      on_route_established(event.t, event.packet->route);
      break;
    case obs::EventKind::kMonSuspicion:
      on_suspicion(event.peer, event.detail);
      break;
    case obs::EventKind::kMonDetection:
      on_local_detection(event.t, event.node, event.peer);
      break;
    case obs::EventKind::kMonIsolation:
      on_isolation(event.t, event.node, event.peer);
      break;
    case obs::EventKind::kAtkDrop:
      drop_times.push_back(event.t);
      break;
    default:
      break;
  }
}

double MetricsCollector::mean_delivery_latency() const {
  if (delivery_latencies.empty()) return 0.0;
  return delivery_latency_sum / static_cast<double>(delivery_latencies.size());
}

double MetricsCollector::latency_percentile(double p) const {
  if (delivery_latencies.empty()) return 0.0;
  std::vector<Duration> sorted = delivery_latencies;
  std::sort(sorted.begin(), sorted.end());
  return obs::sorted_percentile(sorted, p);
}

void MetricsCollector::on_route_established(Time t,
                                            const pkt::NodeList& path) {
  bool fake_link = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!graph_.is_neighbor(path[i], path[i + 1])) {
      fake_link = true;
      break;
    }
  }
  const bool via_malicious =
      std::any_of(path.begin(), path.end(),
                  [this](NodeId n) { return is_malicious(n); });
  const bool transit =
      path.size() > 2 &&
      std::any_of(path.begin() + 1, path.end() - 1,
                  [this](NodeId n) { return is_malicious(n); });
  if (fake_link) {
    ++wormhole_routes;
    wormhole_route_times.push_back(t);
  }
  if (via_malicious) ++routes_via_malicious;
  if (transit) ++routes_via_malicious_transit;
}

void MetricsCollector::on_suspicion(NodeId suspect, std::uint8_t detail) {
  if (detail == obs::kSuspicionFabrication) {
    ++suspicions_fabrication;
  } else if (detail == obs::kSuspicionDrop) {
    ++suspicions_drop;
  } else {
    ++suspicions_anomaly;
  }
  if (!is_malicious(suspect)) ++false_suspicions;
}

void MetricsCollector::on_local_detection(Time t, NodeId guard,
                                          NodeId suspect) {
  if (!is_malicious(suspect)) {
    // One guard's noise conviction: it severs one link. Only a
    // gamma-confirmed isolation (mon.isolation) counts as the network
    // falsely ISOLATING an honest node.
    ++false_local_detections;
    return;
  }
  IsolationRecord& record = isolation_.at(suspect);
  if (!record.first_detection) record.first_detection = t;
  note_revocation(t, guard, suspect);
}

void MetricsCollector::on_isolation(Time t, NodeId node, NodeId suspect) {
  if (!is_malicious(suspect)) {
    ++false_isolations;
    return;
  }
  note_revocation(t, node, suspect);
}

void MetricsCollector::note_revocation(Time t, NodeId by, NodeId suspect) {
  IsolationRecord& record = isolation_.at(suspect);
  record.revoked_by.emplace(by, t);
  if (record.complete) return;
  const bool done = std::all_of(
      record.required.begin(), record.required.end(),
      [&record](NodeId n) { return record.revoked_by.count(n) != 0; });
  if (done) record.complete = t;
}

bool MetricsCollector::all_malicious_isolated() const {
  return malicious_isolated_count() == isolation_.size();
}

std::size_t MetricsCollector::malicious_isolated_count() const {
  return static_cast<std::size_t>(
      std::count_if(isolation_.begin(), isolation_.end(),
                    [](const auto& e) { return e.second.complete.has_value(); }));
}

std::optional<Duration> MetricsCollector::isolation_latency(
    Time attack_start) const {
  Duration latency = 0.0;
  for (const auto& [node, record] : isolation_) {
    (void)node;
    if (!record.complete) return std::nullopt;
    latency = std::max(latency, *record.complete - attack_start);
  }
  return latency;
}

std::uint64_t MetricsCollector::cumulative_at(const std::vector<Time>& times,
                                              Time t) {
  // Event vectors are appended in simulation order, hence sorted.
  return static_cast<std::uint64_t>(
      std::upper_bound(times.begin(), times.end(), t) - times.begin());
}

}  // namespace lw::stats
