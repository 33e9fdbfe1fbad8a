// Wormhole tunnel between colluding malicious nodes.
//
// The paper's simulation delivers out-of-band tunneled packets
// instantaneously; packet encapsulation incurs the latency of the multihop
// path between the colluders (but hides the hop count). We model both: the
// coordinator knows the honest-path hop distance between every colluder
// pair (from ground-truth geometry, supplied by the scenario) and delays
// encapsulated deliveries by hops * per_hop_delay. Neither flavor occupies
// the simulated channel — the out-of-band link is by definition a separate
// channel, and encapsulated traffic rides ordinary unicasts whose load is
// negligible at the evaluated rates (documented substitution).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "attack/modes.h"
#include "packet/packet.h"
#include "sim/simulator.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::attack {

struct AttackParams {
  WormholeMode mode = WormholeMode::kOutOfBand;
  /// Attack begins this long into the run (Table 2 experiments: 50 s).
  Time start_time = 50.0;
  /// Endpoints drop all data traffic routed through them once active.
  bool drop_data = true;
  /// Announce a genuine neighbor as previous hop (the "smarter" attacker of
  /// Section 4.2.3); false announces the colluder and is caught by the
  /// two-hop admission check instead of by guards.
  bool smart_prev_hop = true;
  /// Lie about the SAME neighbor every time instead of a random one per
  /// replay. This pins the fabricated link, so only the guards of that one
  /// link collect evidence — the geometry Section 5.1 analyzes (g = 0.51
  /// N_B per link). The default randomized lie spreads evidence over all
  /// the attacker's neighbors and is detected even faster.
  bool fixed_fake_prev = false;
  /// Range multiplier for the high-power mode (transmit and receive).
  double high_power_multiplier = 3.0;
  /// Per-hop forwarding latency of encapsulated tunnel traffic.
  Duration encapsulation_per_hop_delay = 0.02;
};

class MaliciousAgent;

class WormholeCoordinator {
 public:
  WormholeCoordinator(sim::Simulator& simulator, AttackParams params);

  void register_agent(MaliciousAgent* agent);

  /// Ground-truth hop distance between two colluders (encapsulation delay).
  void set_hop_distance(NodeId a, NodeId b, std::size_t hops);

  /// Sends `packet` through the tunnel from `from` to every other colluder.
  void tunnel_to_all(NodeId from, const pkt::Packet& packet);

  /// Sends `packet` through the tunnel to one specific colluder.
  void tunnel_to(NodeId from, NodeId to, const pkt::Packet& packet);

  bool is_colluder(NodeId id) const;
  const AttackParams& params() const { return params_; }

 private:
  Duration tunnel_delay(NodeId a, NodeId b) const;

  sim::Simulator& simulator_;
  AttackParams params_;
  std::vector<MaliciousAgent*> agents_;
  std::unordered_map<std::uint64_t, std::size_t> hop_distance_;
};

}  // namespace lw::attack
