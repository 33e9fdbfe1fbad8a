#include "scenario/config.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "topology/field.h"

namespace lw::scenario {

ExperimentConfig ExperimentConfig::table2_defaults() {
  ExperimentConfig config;
  config.node_count = 100;
  config.radio_range = 30.0;
  config.target_neighbors = 8.0;
  config.phy.bandwidth_bps = 40000.0;
  config.routing.route_timeout = 50.0;
  // Table 2 quotes lambda = 1/10 s; on our plain-CSMA 40 kbps channel that
  // sits just past the congestion cliff (collision rates ~25%, far above
  // the P_C ~= 0.05-0.13 the paper's own coverage analysis assumes).
  // 1/20 s lands the channel exactly at the analysis' operating point
  // (~10% collisions at N_B = 8) — see DESIGN.md, calibration notes.
  config.traffic.data_rate = 1.0 / 20.0;
  config.traffic.destination_change_rate = 1.0 / 200.0;
  config.attack.start_time = 50.0;
  config.malicious_count = 2;
  config.duration = 2000.0;
  config.finalize();
  return config;
}

void ExperimentConfig::finalize() {
  // Secure-discovery window: the system model promises discovery completes
  // cleanly within T_ND of deployment.
  const Duration t_nd = nbr::discovery_complete_time(discovery);
  phy.collision_free_until = oracle_discovery ? 0.0 : t_nd;
  defense.leash.range = radio_range;
  defense.leash.bandwidth_bps = phy.bandwidth_bps;
  defense.leash.propagation_speed = phy.propagation_speed;
  if (traffic.start_time < t_nd) traffic.start_time = t_nd + 1.0;
  if (attack.start_time < traffic.start_time) {
    attack.start_time = traffic.start_time;
  }
}

void ExperimentConfig::validate() const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("ExperimentConfig: " + what);
  };
  if (node_count == 0) reject("node_count must be positive");
  if (radio_range <= 0.0) reject("radio_range must be positive");
  if (target_neighbors <= 0.0 && !field_side && !positions) {
    reject("target_neighbors must be positive to derive the field side");
  }
  if (duration < 0.0) reject("duration must be non-negative");
  if (late_joiners > 0 && oracle_discovery) {
    reject(
        "late_joiners require the real discovery protocol "
        "(oracle_discovery = false): oracle tables would know undeployed "
        "nodes");
  }
  if (malicious_count > node_count) {
    reject(
        "malicious_count exceeds node_count (attackers are insiders of "
        "the initial deployment)");
  }
  if (!malicious_nodes.empty() &&
      malicious_nodes.size() != malicious_count) {
    reject("malicious_nodes and malicious_count disagree");
  }
  if (positions && positions->size() != node_count + late_joiners) {
    reject("explicit positions must cover node_count + late_joiners nodes");
  }
  if (traffic.data_rate < 0.0) reject("data_rate must be non-negative");
  if ((obs.series || obs.watch) && obs.series_bucket <= 0.0) {
    reject("series_bucket must be positive");
  }
  // DefenseConfig throws its own "DefenseConfig: ..." invalid_argument
  // naming the offending backend parameter.
  defense.validate();
  // FaultPlan throws its own "FaultPlan: ..." invalid_argument with the
  // offending entry spelled out.
  fault.validate(node_count + late_joiners);
}

std::string ExperimentConfig::summary() const {
  const double side =
      field_side.value_or(topo::field_side_for_density(
          node_count, radio_range, target_neighbors));
  std::ostringstream out;
  out << "nodes N             : " << node_count << '\n'
      << "tx range r          : " << radio_range << " m\n"
      << "field               : " << side << " x " << side << " m\n"
      << "target N_B          : " << target_neighbors << '\n'
      << "channel bandwidth   : " << phy.bandwidth_bps / 1000.0 << " kbps\n"
      << "data rate lambda    : " << traffic.data_rate << " pkt/s per node\n"
      << "dest change rate    : " << traffic.destination_change_rate
      << " /s per node\n"
      << "TOut_Route          : " << routing.route_timeout << " s\n"
      << "watch timeout delta : " << defense.liteworp.watch_timeout << " s\n"
      << "V_f / V_d / C_t     : " << defense.liteworp.malc_fabrication
      << " / " << defense.liteworp.malc_drop << " / "
      << defense.liteworp.malc_threshold << '\n'
      << "gamma               : " << defense.liteworp.detection_confidence
      << '\n'
      << "MalC window kappa   : " << defense.liteworp.window_packets
      << " packets\n"
      << "malicious M         : " << malicious_count << " ("
      << attack::to_string(attack.mode) << ", start "
      << attack.start_time << " s)\n"
      << "defense             : " << defense.name << '\n'
      << "duration            : " << duration << " s\n"
      << "seed                : " << seed << '\n';
  return out.str();
}

}  // namespace lw::scenario
