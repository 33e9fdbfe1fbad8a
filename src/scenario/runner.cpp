#include "scenario/runner.h"
#include <cmath>
#include <utility>

namespace lw::scenario {

RunResult RunResult::from_metrics(const Network& network) {
  const stats::MetricsCollector& m = network.metrics();
  const obs::Recorder& events = network.recorder();
  const phy::MediumStats& phy = network.medium().stats();

  RunResult r;
  r.seed = network.config().seed;
  r.average_degree = network.average_degree();
  for (NodeId id = 0; id < network.size(); ++id) {
    r.data_originated += network.node(id).routing().data_originated();
  }
  r.data_delivered = events.count(obs::EventKind::kRouteDeliver);
  r.data_dropped_malicious = events.count(obs::EventKind::kAtkDrop);
  r.data_dropped_no_route = events.count(obs::EventKind::kRouteDrop);
  r.discoveries = events.count(obs::EventKind::kRouteDiscovery);
  r.routes_established = events.count(obs::EventKind::kRouteEstablished);
  r.wormhole_routes = m.wormhole_routes;
  r.routes_via_malicious = m.routes_via_malicious;
  r.wormhole_replays = events.count(obs::EventKind::kAtkReplay);
  const stats::Accusations accusations = m.accusations();
  r.suspicions_fabrication = accusations.suspicions_fabrication;
  r.suspicions_drop = accusations.suspicions_drop;
  r.suspicions_anomaly = accusations.suspicions_anomaly;
  r.false_suspicions = accusations.false_suspicions;
  r.local_detections = events.count(obs::EventKind::kMonDetection);
  r.isolation_events = events.count(obs::EventKind::kMonIsolation);
  r.false_isolations = accusations.false_isolations;
  r.malicious_count = network.malicious_ids().size();
  r.malicious_isolated = m.malicious_isolated_count();
  r.all_isolated = m.all_malicious_isolated();
  r.isolation_latency =
      m.isolation_latency(network.config().attack.start_time);
  r.frames_transmitted = phy.frames_transmitted;
  r.frames_delivered = phy.frames_delivered;
  r.frames_collided = phy.frames_collided;
  r.mean_delivery_latency = m.mean_delivery_latency();
  r.p95_delivery_latency = m.latency_percentile(95.0);
  r.duration = network.config().duration;
  r.attack_start = network.config().attack.start_time;
  r.defense_name = network.config().defense.name;
  r.defense_cost = network.defense_cost();
  r.fault_active = !network.config().fault.empty();
  r.nodes_crashed = events.count(obs::EventKind::kFltCrash);
  r.nodes_recovered = events.count(obs::EventKind::kFltRecover);
  r.recovery_latencies = network.recovery_latencies();
  r.drop_times = m.drop_times;
  r.wormhole_route_times = m.wormhole_route_times;
  r.trace_jsonl = network.trace_jsonl();
  r.registry = network.registry_snapshot();
  r.profile = network.profile();
  r.incidents = network.incidents();
  r.forensics = network.forensics_summary();
  r.series = network.series();
  r.spans = network.spans();
  return r;
}

RunResult run_experiment(ExperimentConfig config,
                         double wall_timeout_seconds) {
  Network network(std::move(config));
  network.simulator().set_wall_timeout(wall_timeout_seconds);
  network.run();
  return RunResult::from_metrics(network);
}

std::vector<SeriesPoint> cumulative_series(const std::vector<Time>& times,
                                           Time horizon, Time dt) {
  std::vector<SeriesPoint> series;
  std::size_t index = 0;
  for (Time t = 0.0; t <= horizon + dt / 2; t += dt) {
    while (index < times.size() && times[index] <= t) ++index;
    series.push_back({t, static_cast<double>(index)});
  }
  return series;
}

namespace {

/// Welford online mean/variance; reports the standard error of the mean.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  double mean() const { return mean_; }
  double sem() const {
    if (n_ < 2) return 0.0;
    const double variance = m2_ / static_cast<double>(n_ - 1);
    return std::sqrt(variance / static_cast<double>(n_));
  }

 private:
  int n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace

Aggregate Aggregate::reduce(const std::vector<RunResult>& all_results) {
  Aggregate agg;
  // Failed replicas (watchdog kills) carry no meaningful outputs: count
  // them, then average only over the completed runs.
  std::vector<const RunResult*> results;
  results.reserve(all_results.size());
  for (const RunResult& r : all_results) {
    if (r.failed) {
      ++agg.failed_runs;
    } else {
      results.push_back(&r);
    }
  }
  agg.runs = static_cast<int>(results.size());
  if (results.empty()) return agg;

  double latency_sum = 0.0;
  int latency_runs = 0;
  double recovery_sum = 0.0;
  RunningStat dropped;
  RunningStat wormhole_fraction;
  RunningStat detected;

  for (const RunResult* rp : results) {
    const RunResult& r = *rp;
    if (r.fault_active) {
      agg.fault_active = true;
      agg.nodes_crashed += static_cast<double>(r.nodes_crashed);
      agg.nodes_recovered += static_cast<double>(r.nodes_recovered);
      for (Duration latency : r.recovery_latencies) {
        recovery_sum += latency;
        ++agg.recovery_samples;
      }
      agg.framed_accusations +=
          static_cast<double>(r.forensics.framed_accusations);
      agg.framed_isolations +=
          static_cast<double>(r.forensics.framed_isolations);
    }
    agg.data_originated += static_cast<double>(r.data_originated);
    agg.data_dropped_malicious +=
        static_cast<double>(r.data_dropped_malicious);
    dropped.add(r.fraction_dropped());
    agg.routes_established += static_cast<double>(r.routes_established);
    agg.wormhole_routes += static_cast<double>(r.wormhole_routes);
    wormhole_fraction.add(r.fraction_wormhole_routes());
    agg.false_isolations += static_cast<double>(r.false_isolations);
    if (r.malicious_count > 0) {
      detected.add(static_cast<double>(r.malicious_isolated) /
                   static_cast<double>(r.malicious_count));
    } else {
      detected.add(1.0);  // nothing to detect
    }
    if (r.isolation_latency) {
      latency_sum += *r.isolation_latency;
      ++latency_runs;
      ++agg.runs_fully_isolated;
    }
  }

  const double n = static_cast<double>(results.size());
  agg.data_originated /= n;
  agg.data_dropped_malicious /= n;
  agg.fraction_dropped = dropped.mean();
  agg.fraction_dropped_sem = dropped.sem();
  agg.routes_established /= n;
  agg.wormhole_routes /= n;
  agg.fraction_wormhole_routes = wormhole_fraction.mean();
  agg.fraction_wormhole_routes_sem = wormhole_fraction.sem();
  agg.false_isolations /= n;
  agg.detection_probability = detected.mean();
  agg.detection_probability_sem = detected.sem();
  if (latency_runs > 0) {
    agg.mean_isolation_latency = latency_sum / latency_runs;
  }
  agg.nodes_crashed /= n;
  agg.nodes_recovered /= n;
  agg.framed_accusations /= n;
  agg.framed_isolations /= n;
  if (agg.recovery_samples > 0) {
    agg.mean_recovery_latency =
        recovery_sum / static_cast<double>(agg.recovery_samples);
  }
  return agg;
}

}  // namespace lw::scenario
