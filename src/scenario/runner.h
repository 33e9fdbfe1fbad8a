// Experiment runner: one run -> RunResult; many seeds -> Aggregate.
//
// The benches that regenerate the paper's figures are thin loops over
// these helpers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "scenario/network.h"

namespace lw::scenario {

/// Scalar outputs of one run (Section 6 output parameters).
struct RunResult {
  std::uint64_t seed = 0;
  double average_degree = 0.0;

  /// Set when the run did not complete (wall-clock watchdog fired); every
  /// other field is then meaningless. Failed replicas are excluded from
  /// Aggregate::reduce and flagged in the sweep JSON.
  bool failed = false;
  std::string fail_reason;

  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped_malicious = 0;
  std::uint64_t data_dropped_no_route = 0;
  std::uint64_t discoveries = 0;
  std::uint64_t routes_established = 0;
  std::uint64_t wormhole_routes = 0;
  std::uint64_t routes_via_malicious = 0;
  std::uint64_t wormhole_replays = 0;

  std::uint64_t suspicions_fabrication = 0;
  std::uint64_t suspicions_drop = 0;
  std::uint64_t suspicions_anomaly = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t local_detections = 0;
  std::uint64_t isolation_events = 0;
  std::uint64_t false_isolations = 0;

  std::size_t malicious_count = 0;
  std::size_t malicious_isolated = 0;
  bool all_isolated = false;
  std::optional<Duration> isolation_latency;

  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;

  double mean_delivery_latency = 0.0;
  double p95_delivery_latency = 0.0;

  Time duration = 0.0;
  Time attack_start = 0.0;

  // ---- Defense identity + overhead (uniform across backends) ----
  /// The active backend's registered name ("liteworp", "leash", ...).
  std::string defense_name;
  /// Network-wide overhead counters summed over all nodes in id order.
  defense::CostSnapshot defense_cost;

  // ---- Robustness outputs (a FaultPlan ran; all zero/empty otherwise) ----
  /// True when the run executed a non-empty FaultPlan; gates the fault
  /// block in the sweep JSON so clean output stays byte-identical.
  bool fault_active = false;
  std::uint64_t nodes_crashed = 0;
  std::uint64_t nodes_recovered = 0;
  /// Crash-recovery latencies (recover -> first re-authenticated
  /// neighbor), one per completed recovery.
  std::vector<Duration> recovery_latencies;

  /// Times of each wormhole-dropped data packet (Figure 8 series).
  std::vector<Time> drop_times;
  /// Times of each wormhole route establishment.
  std::vector<Time> wormhole_route_times;

  // ---- Observability outputs (populated per config.obs) ----
  /// The run's JSONL event trace; empty unless obs.trace. Buffered here so
  /// sweeps can write traces in spec order at any thread count.
  std::string trace_jsonl;
  /// Event-counter snapshot; empty unless obs.counters.
  obs::RegistrySnapshot registry;
  /// Profiling report; enabled mirrors obs.profile.
  obs::ProfileReport profile;
  /// Labeled detection incidents + rollup; enabled mirrors obs.forensics.
  std::vector<forensics::Incident> incidents;
  forensics::ForensicsSummary forensics;
  /// Sim-time telemetry series; enabled mirrors obs.series.
  obs::SeriesReport series;
  /// Protocol-transaction spans; enabled mirrors obs.spans.
  forensics::SpanReport spans;

  double fraction_dropped() const {
    return data_originated == 0
               ? 0.0
               : static_cast<double>(data_dropped_malicious) /
                     static_cast<double>(data_originated);
  }
  double fraction_wormhole_routes() const {
    return routes_established == 0
               ? 0.0
               : static_cast<double>(wormhole_routes) /
                     static_cast<double>(routes_established);
  }

  /// Extracts every output parameter from a finished network's collectors
  /// (metrics, PHY stats, topology) — the single transcription point.
  static RunResult from_metrics(const Network& network);
};

/// Builds a network from `config`, runs it to completion, extracts results.
/// The Network constructor calls config.finalize() and config.validate(),
/// so callers cannot forget either. With `wall_timeout_seconds` > 0 a run still
/// executing that much real time later throws sim::WallClockTimeout (the
/// sweep engine converts that into a failed replica).
RunResult run_experiment(ExperimentConfig config,
                         double wall_timeout_seconds = 0.0);

/// Point of a time series.
struct SeriesPoint {
  Time t = 0.0;
  double value = 0.0;
};

/// Cumulative count of `times` sampled every `dt` over [0, horizon].
std::vector<SeriesPoint> cumulative_series(const std::vector<Time>& times,
                                           Time horizon, Time dt);

/// Seed-averaged scalar outputs with standard errors of the means.
struct Aggregate {
  int runs = 0;
  double data_originated = 0.0;
  double data_dropped_malicious = 0.0;
  double fraction_dropped = 0.0;
  double fraction_dropped_sem = 0.0;
  double routes_established = 0.0;
  double wormhole_routes = 0.0;
  double fraction_wormhole_routes = 0.0;
  double fraction_wormhole_routes_sem = 0.0;
  double false_isolations = 0.0;
  /// Fraction of malicious nodes completely isolated, averaged over runs.
  double detection_probability = 0.0;
  double detection_probability_sem = 0.0;
  /// Mean isolation latency over runs that reached complete isolation.
  std::optional<Duration> mean_isolation_latency;
  int runs_fully_isolated = 0;

  // ---- Robustness rollup (nonzero only when replicas ran FaultPlans) ----
  /// Replicas excluded from the averages because they failed (watchdog).
  int failed_runs = 0;
  /// True when any replica ran a non-empty FaultPlan.
  bool fault_active = false;
  double nodes_crashed = 0.0;
  double nodes_recovered = 0.0;
  /// Mean crash-recovery latency over all completed recoveries.
  double mean_recovery_latency = 0.0;
  std::uint64_t recovery_samples = 0;
  /// Framing outcome (forensics flt.frame ground truth), averaged.
  double framed_accusations = 0.0;
  double framed_isolations = 0.0;

  /// The one aggregation code path (means + SEMs): used by average_runs and
  /// the sweep engine. Order-sensitive only in float-rounding terms, so
  /// callers must pass results in seed order for bit-identical output.
  static Aggregate reduce(const std::vector<RunResult>& results);
};

/// Runs `runs` replicas with seeds base_seed, base_seed+1, ... and averages.
/// Implemented as a single-point sweep; `threads` > 1 (or 0 = all cores)
/// fans the replicas across workers with bit-identical results.
Aggregate average_runs(ExperimentConfig config, int runs,
                       std::uint64_t base_seed, int threads = 1);

}  // namespace lw::scenario
