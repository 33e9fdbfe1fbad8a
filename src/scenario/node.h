// Concrete node: the full protocol stack wired together.
//
// Owns the radio, MAC, neighbor state, routing, and either a defense
// backend (honest nodes; selected by config.defense.name through
// defense::make) or a malicious agent (attackers), and implements the
// frame dispatch:
//
//   radio decode -> [malicious intercept] -> [defense observe tap] ->
//   [defense admit verdict] -> protocol handler (discovery/alert/routing)
#pragma once

#include <memory>

#include "attack/malicious_agent.h"
#include "defense/defense.h"
#include "neighbor/admission.h"
#include "neighbor/discovery.h"
#include "neighbor/dynamic_join.h"
#include "node/node_env.h"
#include "routing/routing.h"
#include "routing/traffic.h"
#include "scenario/config.h"

namespace lw::scenario {

class Node final : public node::NodeEnv {
 public:
  /// `recorder` (optional) is the run's observability recorder; the node
  /// exposes it to its protocol agents via NodeEnv::obs() and emits MAC
  /// overhear plus admission verdict events itself.
  Node(NodeId id, const ExperimentConfig& config, sim::Simulator& simulator,
       phy::Medium& medium, const crypto::KeyManager& keys,
       pkt::PacketFactory& factory, Rng rng, bool malicious,
       attack::WormholeCoordinator* coordinator,
       obs::Recorder* recorder = nullptr);

  ~Node() override;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Starts discovery (or oracle-bootstraps it) and the traffic generator.
  void start(const topo::DiscGraph& graph);

  /// Late deployment: the node joins a live network through the dynamic
  /// challenge-response protocol instead of the deployment-time discovery;
  /// its own traffic begins once the join settles.
  void start_late();

  bool deployed() const { return deployed_; }

  // ---- Fault-plan support (driven by Network as fault::FaultHost) ----

  /// Turns on the crash-resilience behaviors that a clean run must not pay
  /// for: neighbor aging (crashed peers fall out of the table and become
  /// re-challengeable) and MAC send-failure -> route eviction. Called once,
  /// before the run starts, only when the experiment has a FaultPlan.
  void enable_hardening(Duration age_timeout, Duration sweep_interval);

  /// Powers the node down: MAC queue, exchanges and timers die, routing
  /// and neighbor state is wiped, traffic stops, the monitor forgets
  /// everything. Frames it already has on the air finish (crash
  /// granularity is the frame boundary); the medium silences it otherwise.
  void crash();

  /// Reboots the node: it re-enters through the dynamic-join
  /// challenge-response path exactly like a late-deployed node, and its
  /// traffic resumes once the join settles.
  void recover();

  bool alive() const { return alive_; }

  /// Time from recover() until the node re-authenticated its first
  /// neighbor; negative while (or if) that has not happened. One value per
  /// completed recovery, in order.
  const std::vector<Duration>& recovery_latencies() const {
    return recovery_latencies_;
  }

  // NodeEnv
  NodeId id() const override { return id_; }
  sim::Simulator& simulator() override { return simulator_; }
  pkt::PacketFactory& packet_factory() override { return factory_; }
  const crypto::KeyManager& keys() const override { return keys_; }
  Rng& rng() override { return rng_; }
  void send(pkt::Packet packet, mac::SendOptions options = {}) override;
  std::size_t mac_queue_depth() const override { return mac_.queue_depth(); }
  obs::Recorder* obs() override { return recorder_; }

  bool malicious() const { return malicious_agent_ != nullptr; }
  phy::Radio& radio() { return radio_; }
  nbr::NeighborTable& table() { return table_; }
  const nbr::NeighborTable& table() const { return table_; }
  nbr::DiscoveryAgent& discovery() { return discovery_; }
  nbr::DynamicJoinAgent& join_agent() { return join_; }
  routing::OnDemandRouting& routing() { return routing_; }
  const routing::OnDemandRouting& routing() const { return routing_; }
  routing::TrafficGenerator& traffic() { return traffic_; }
  /// The active defense backend; null on malicious nodes (except the
  /// leash, which is a receive-side filter every node applies).
  defense::Defense* defense() { return defense_.get(); }
  const defense::Defense* defense() const { return defense_.get(); }
  attack::MaliciousAgent* malicious_agent() { return malicious_agent_.get(); }
  const nbr::AdmissionStats& admission_stats() const {
    static const nbr::AdmissionStats kNoChecks;
    return defense_ ? defense_->admission_stats() : kNoChecks;
  }
  const mac::MacStats& mac_stats() const { return mac_.stats(); }
  /// Own (GPS-style) location, forwarded to the defense backend (the
  /// geographical leash needs it; everyone else ignores it).
  void set_own_position(double x, double y) {
    if (defense_) defense_->set_own_position(x, y);
  }

 private:
  void handle_frame(const pkt::Packet& packet);
  void touch_neighbor(NodeId peer);
  void age_out_neighbors();
  void schedule_age_sweep();

  NodeId id_;
  const ExperimentConfig& config_;
  sim::Simulator& simulator_;
  const crypto::KeyManager& keys_;
  pkt::PacketFactory& factory_;
  Rng rng_;
  obs::Recorder* recorder_;

  phy::Radio radio_;
  mac::CsmaMac mac_;
  nbr::NeighborTable table_;
  nbr::DiscoveryAgent discovery_;
  nbr::DynamicJoinAgent join_;
  routing::OnDemandRouting routing_;
  routing::TrafficGenerator traffic_;
  bool deployed_ = false;
  bool alive_ = true;
  // Crash-resilience knobs; inert (hardening_ false) on clean runs.
  bool hardening_ = false;
  Duration age_timeout_ = 0.0;
  Duration sweep_interval_ = 0.0;
  Time harden_start_ = 0.0;
  /// Last time each peer was heard (indexed by id; -1 = never).
  std::vector<Time> last_heard_;
  /// Recovery-latency measurement: recover() arms recover_started_; the
  /// first re-authenticated neighbor closes the sample.
  Time recover_started_ = -1.0;
  std::vector<Duration> recovery_latencies_;
  std::unique_ptr<defense::Defense> defense_;
  std::unique_ptr<attack::MaliciousAgent> malicious_agent_;
};

}  // namespace lw::scenario
