// Experiment configuration (Table 2 of the paper plus protocol constants).
//
// ExperimentConfig::table2_defaults() reproduces the paper's simulation
// setup: r = 30 m, N_B = 8, lambda = 1/10 s, destination change rate =
// 1/200 s, TOut_Route = 50 s, 40 kbps channel, attack at 50 s, 2000 s runs,
// field side scaled with sqrt(N) to keep density fixed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "attack/coordinator.h"
#include "defense/defense.h"
#include "fault/plan.h"
#include "mac/csma_mac.h"
#include "neighbor/discovery.h"
#include "obs/options.h"
#include "neighbor/dynamic_join.h"
#include "phy/phy_params.h"
#include "routing/routing.h"
#include "routing/traffic.h"
#include "topology/field.h"
#include "util/sim_time.h"

namespace lw::scenario {

struct ExperimentConfig {
  // ---- Topology ----
  std::size_t node_count = 100;
  double radio_range = 30.0;
  /// Target average neighbor count N_B; determines the field side.
  double target_neighbors = 8.0;
  /// Explicit field side (meters); overrides the density-derived side.
  std::optional<double> field_side;
  /// Explicit node positions (e.g. the paper's Figure 1/2 chain
  /// topologies); overrides random placement entirely. Must cover
  /// node_count + late_joiners nodes.
  std::optional<std::vector<topo::Position>> positions;
  /// Topology attempts until the constraints (connectivity, malicious
  /// separation) hold.
  int max_topology_retries = 200;

  // ---- Determinism ----
  std::uint64_t seed = 1;
  std::uint64_t key_master_secret = 0x11223344AABBCCDDull;

  // ---- Stack parameters ----
  phy::PhyParams phy;
  mac::MacParams mac;
  nbr::DiscoveryParams discovery;
  nbr::JoinParams join;
  routing::RoutingParams routing;
  routing::TrafficParams traffic;
  /// Defense backend selection plus every backend's parameter block
  /// (defense.name picks one of defense::registry()). finalize() aligns
  /// the leash block's range/bandwidth with the PHY.
  defense::DefenseConfig defense;

  // ---- Incremental deployment (Sections 4.1 / 7) ----
  /// Nodes beyond node_count that join the live network later via the
  /// dynamic challenge-response discovery. Requires oracle_discovery off.
  std::size_t late_joiners = 0;
  /// When the first late node joins; subsequent joiners are staggered.
  Time late_join_time = 120.0;
  Duration late_join_stagger = 10.0;

  // ---- Attack ----
  /// M in the paper; 0 disables the attack entirely.
  std::size_t malicious_count = 2;
  /// Explicit attacker identities (e.g. Figure 1's X and Y); overrides
  /// the random separated pick. Ignored when empty.
  std::vector<NodeId> malicious_nodes;
  attack::AttackParams attack;
  /// Malicious nodes are placed pairwise farther apart than this many hops
  /// ("more than 2 hops away from each other").
  std::size_t min_malicious_hop_separation = 3;

  // ---- Fault injection (robustness experiments) ----
  /// Scheduled crashes, link outages, guard framing and frame corruption.
  /// Empty by default; an empty plan is guaranteed zero-cost (no events
  /// scheduled, traces byte-identical to a build without faults).
  fault::FaultPlan fault;

  // ---- Run ----
  Time duration = 2000.0;
  /// Bootstrap neighbor tables from geometry instead of running the
  /// discovery message exchange (fast unit-test mode).
  bool oracle_discovery = false;

  // ---- Observability ----
  /// Typed event recording (trace / counters / profiling / series). All
  /// off by default; only the metrics collector's layers then emit.
  obs::Options obs;

  /// The paper's Table 2 setup. defense.name selects protected
  /// ("liteworp", the default) vs baseline ("none") runs.
  static ExperimentConfig table2_defaults();

  /// Recomputes derived values (field side, collision-free discovery
  /// window, traffic start) after fields are edited. Idempotent.
  /// run_experiment and the sweep engine call it internally, so forgetting
  /// it is no longer possible on those paths.
  void finalize();

  /// Rejects contradictory setups (e.g. late joiners with oracle
  /// discovery) with std::invalid_argument instead of silent misbehavior.
  /// Called internally by run_experiment and the sweep engine.
  void validate() const;

  /// Human-readable parameter dump (Table 2 bench).
  std::string summary() const;
};

}  // namespace lw::scenario
