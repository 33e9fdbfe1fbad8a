// Builds and runs one complete simulated deployment.
//
// Responsible for everything a node cannot do for itself: placing the
// field (with retries until it is connected and the malicious nodes are
// far enough apart), wiring medium/keys/metrics, selecting the attackers,
// and driving the clock.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/coordinator.h"
#include "fault/injector.h"
#include "forensics/incident.h"
#include "forensics/span.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "obs/trace_writer.h"
#include "phy/medium.h"
#include "scenario/node.h"
#include "sim/simulator.h"
#include "stats/metrics.h"
#include "topology/disc_graph.h"

namespace lw::scenario {

/// The Network doubles as the fault injector's host: it is the only layer
/// that can both silence a radio in the medium and wipe a node's protocol
/// stack coherently.
class Network : public fault::FaultHost {
 public:
  /// Finalizes and validates `config` (ExperimentConfig::validate throws
  /// std::invalid_argument), then builds and starts the deployment.
  explicit Network(ExperimentConfig config);
  ~Network() override;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Runs to the configured duration.
  void run();

  /// Advances the clock to `t` (monotonic across calls).
  void run_until(Time t);

  const ExperimentConfig& config() const { return config_; }
  sim::Simulator& simulator() { return simulator_; }
  const topo::DiscGraph& graph() const { return *graph_; }
  phy::Medium& medium() { return *medium_; }
  const phy::Medium& medium() const { return *medium_; }
  stats::MetricsCollector& metrics() { return *metrics_; }
  const stats::MetricsCollector& metrics() const { return *metrics_; }
  const std::vector<NodeId>& malicious_ids() const { return malicious_ids_; }
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  /// Ground-truth average degree of the built topology.
  double average_degree() const { return graph_->average_degree(); }

  // ---- Observability (config().obs selects what is live) ----

  /// The run's event recorder and event tally. Always present, with the
  /// incident builder subscribed to the mon, atk and flt layers and the
  /// metrics collector to the route and atk layers: config().obs selects
  /// the other built-in sinks (trace/spans), and callers may add their own
  /// before running.
  obs::Recorder& recorder() { return *recorder_; }
  const obs::Recorder& recorder() const { return *recorder_; }

  /// JSONL trace accumulated so far (empty unless obs.trace). Buffered in
  /// memory so sweeps can write per-run traces in spec order regardless of
  /// worker-thread interleaving. When spans are on, reading the trace
  /// first flushes still-open spans (their span.end lines must land in
  /// the buffer), so call after the run completes.
  std::string trace_jsonl() const;

  /// The tally's counters by name (empty unless obs.counters).
  obs::RegistrySnapshot registry_snapshot() const {
    return config_.obs.counters ? obs::RegistrySnapshot::from(*recorder_)
                                : obs::RegistrySnapshot{};
  }

  /// Profiling report; enabled flag mirrors obs.profile. Wall time covers
  /// the run()/run_until() calls made so far.
  obs::ProfileReport profile() const;

  /// Sim-time telemetry series sampled at obs.series_bucket boundaries
  /// (enabled flag false unless obs.series). Deterministic: byte-identical
  /// JSON per seed at any sweep thread count and across build types.
  obs::SeriesReport series() const;

  /// Labeled detection incidents folded live from the event stream (empty
  /// unless obs.forensics). Sorted by accused node id.
  std::vector<forensics::Incident> incidents() const {
    return config_.obs.forensics ? incident_builder_.build()
                                 : std::vector<forensics::Incident>{};
  }

  /// Protocol-transaction span statistics (enabled flag false unless
  /// obs.spans). Flushes still-open spans at the current sim time on
  /// first read, so call after the run completes.
  forensics::SpanReport spans() const;

  /// Aggregate forensics summary; enabled flag mirrors obs.forensics.
  forensics::ForensicsSummary forensics_summary() const {
    return config_.obs.forensics ? incident_builder_.summarize()
                                 : forensics::ForensicsSummary{};
  }

  /// Network-wide defense overhead: per-node CostSnapshots summed in
  /// node-id order (deterministic).
  defense::CostSnapshot defense_cost() const;

  // ---- Robustness outputs (all zero/empty on fault-free runs) ----

  /// Number of crash / recovery faults actually executed.
  std::uint64_t fault_crashes() const { return fault_crashes_; }
  std::uint64_t fault_recoveries() const { return fault_recoveries_; }

  /// Every completed crash-recovery latency sample across all nodes
  /// (recover() -> first re-authenticated neighbor), in node-id order.
  std::vector<Duration> recovery_latencies() const;

  // ---- fault::FaultHost (driven by the injector; public for tests) ----
  void crash_node(NodeId node) override;
  void recover_node(NodeId node) override;
  void set_link_fault(NodeId a, NodeId b, double extra_loss) override;
  void clear_link_fault(NodeId a, NodeId b) override;
  void set_corruption(NodeId node, double probability) override;
  void clear_corruption(NodeId node) override;
  /// Up to `count` honest, alive, monitoring neighbors of `victim`,
  /// ascending by id — the injector's deterministic guard pick.
  std::vector<NodeId> framing_guards(NodeId victim,
                                     std::size_t count) const override;
  void emit_false_alert(NodeId guard, NodeId victim) override;

 private:
  topo::DiscGraph build_topology(const RngFactory& rngs);
  /// Boundary snapshot for the telemetry sampler: the recorder's event
  /// tally, deliveries and their latency sum, queue state from the
  /// simulator, memory gauges summed over nodes in id order, and (when
  /// profiling) per-layer self-time.
  obs::BucketSample take_bucket_sample();
  /// Wall-throttled stderr progress line (obs.watch); display only.
  void print_watch_line(Time boundary);
  std::vector<NodeId> pick_malicious(const topo::DiscGraph& graph, Rng& rng,
                                     std::size_t count) const;
  void configure_attack();

  ExperimentConfig config_;
  sim::Simulator simulator_;
  crypto::KeyManager keys_;
  pkt::PacketFactory factory_;
  std::ostringstream trace_buffer_;
  /// The run's one per-accused fold; the metrics and spans read it.
  forensics::IncidentBuilder incident_builder_;
  std::unique_ptr<obs::TraceWriter> trace_writer_;
  std::unique_ptr<forensics::SpanBuilder> span_builder_;
  std::unique_ptr<obs::RunProfiler> profiler_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  std::unique_ptr<obs::Recorder> recorder_;
  double wall_seconds_ = 0.0;
  /// Wall-clock throttle + run start for the --watch progress line.
  std::chrono::steady_clock::time_point watch_started_{};
  std::chrono::steady_clock::time_point watch_next_print_{};
  bool watch_running_ = false;
  /// atk.spawn ground-truth events go out once, on the first run call.
  bool spawns_emitted_ = false;
  std::unique_ptr<topo::DiscGraph> graph_;
  std::unique_ptr<phy::Medium> medium_;
  std::vector<NodeId> malicious_ids_;
  std::unique_ptr<stats::MetricsCollector> metrics_;
  std::unique_ptr<attack::WormholeCoordinator> coordinator_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Present only when config_.fault is non-empty (zero-cost otherwise).
  std::unique_ptr<fault::Injector> injector_;
  std::uint64_t fault_crashes_ = 0;
  std::uint64_t fault_recoveries_ = 0;
};

}  // namespace lw::scenario
