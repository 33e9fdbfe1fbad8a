#include "stats/metrics.h"

#include <algorithm>

#include "obs/metrics_registry.h"

namespace lw::stats {

MetricsCollector::MetricsCollector(const topo::DiscGraph& graph,
                                   std::vector<NodeId> malicious,
                                   const forensics::IncidentBuilder& incidents)
    : graph_(graph),
      malicious_(std::move(malicious)),
      incidents_(incidents) {
  std::sort(malicious_.begin(), malicious_.end());
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

Accusations MetricsCollector::accusations() const {
  Accusations a;
  for (const auto& [accused, incident] : incidents_.accused()) {
    a.suspicions_fabrication += incident.suspicions_fabrication;
    a.suspicions_drop += incident.suspicions_drop;
    a.suspicions_anomaly += incident.suspicions_anomaly;
    if (is_malicious(accused)) continue;
    // A local detection is one guard's noise conviction: it severs one
    // link. Only a gamma-confirmed isolation (mon.isolation) counts as the
    // network falsely ISOLATING an honest node.
    a.false_suspicions += incident.suspicions_fabrication +
                          incident.suspicions_drop +
                          incident.suspicions_anomaly;
    a.false_local_detections += incident.detections;
    a.false_isolations += incident.isolations;
  }
  return a;
}

std::vector<Isolation> MetricsCollector::isolation() const {
  std::vector<Isolation> out;
  for (NodeId m : malicious_) {
    Isolation& status = out.emplace_back();
    status.node = m;
    std::vector<NodeId> required;
    for (NodeId neighbor : graph_.neighbors(m)) {
      if (!is_malicious(neighbor)) required.push_back(neighbor);
    }
    status.required = required.size();
    auto found = incidents_.accused().find(m);
    if (found == incidents_.accused().end()) continue;
    const forensics::Incident& incident = found->second;
    if (incident.first_detection >= 0.0) {
      status.first_detection = incident.first_detection;
    }
    const auto& revoked_at = incident.revoked_at;
    status.revoked = revoked_at.size();
    if (revoked_at.empty()) continue;
    // Complete isolation: the last honest neighbor's first revocation, or
    // the first revocation when the node has no honest neighbor.
    if (required.empty()) {
      Time first = revoked_at.begin()->second;
      for (const auto& [by, t] : revoked_at) first = std::min(first, t);
      status.complete = first;
    } else if (std::all_of(required.begin(), required.end(),
                           [&revoked_at](NodeId n) {
                             return revoked_at.count(n) != 0;
                           })) {
      Time last = 0.0;
      for (NodeId n : required) last = std::max(last, revoked_at.at(n));
      status.complete = last;
    }
  }
  return out;
}

std::size_t MetricsCollector::malicious_isolated_count() const {
  std::size_t count = 0;
  for (const Isolation& status : isolation()) count += status.complete ? 1 : 0;
  return count;
}

std::optional<Duration> MetricsCollector::isolation_latency(
    Time attack_start) const {
  Duration latency = 0.0;
  for (const Isolation& status : isolation()) {
    if (!status.complete) return std::nullopt;
    latency = std::max(latency, *status.complete - attack_start);
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
