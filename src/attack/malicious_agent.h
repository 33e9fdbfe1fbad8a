// Byzantine node behavior for every wormhole mode.
//
// A MaliciousAgent sits in front of its host node's honest protocol stack:
// the node offers it every decoded frame first, and the agent either
// consumes it (wormhole manipulation) or lets the honest stack process it.
// Before AttackParams::start_time the agent is dormant and the node is
// indistinguishable from an honest insider.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "attack/coordinator.h"
#include "neighbor/neighbor_table.h"
#include "node/node_env.h"

namespace lw::attack {

class MaliciousAgent {
 public:
  MaliciousAgent(node::NodeEnv& env, nbr::NeighborTable& table,
                 WormholeCoordinator& coordinator);

  /// Offered every frame the node decodes, before honest processing.
  /// Returns true when the frame was consumed by the attack.
  bool intercept(const pkt::Packet& packet);

  /// Delivery from the tunnel (out-of-band or encapsulated).
  void on_tunnel(NodeId from_colluder, const pkt::Packet& packet);

  /// Relay mode: the pair of non-neighbor victims whose frames this node
  /// replays at each other.
  void set_relay_victims(NodeId a, NodeId b);

  bool active() const;
  NodeId id() const { return env_.id(); }

 private:
  bool intercept_tunnel_modes(const pkt::Packet& packet);
  bool intercept_high_power(const pkt::Packet& packet);
  bool intercept_relay(const pkt::Packet& packet);
  bool intercept_rushing(const pkt::Packet& packet);

  /// True and counts the drop when the frame is data addressed to us that
  /// the active attacker swallows.
  bool maybe_drop_data(const pkt::Packet& packet);

  /// Reports an attack frame about to go on the air (atk.replay; `peer`
  /// is the colluder it came from, when one exists).
  void emit_replay(const pkt::Packet& copy, NodeId peer) const;

  /// The lie a wormhole endpoint tells in announced_prev_hop when
  /// rebroadcasting tunneled control traffic.
  NodeId fake_prev_hop(NodeId colluder) const;

  /// Position of this node in a source route, or npos.
  std::size_t my_route_index(const pkt::Packet& packet) const;

  node::NodeEnv& env_;
  nbr::NeighborTable& table_;
  WormholeCoordinator& coordinator_;

  std::unordered_set<FlowKey> tunneled_flows_;
  std::unordered_set<FlowKey> rebroadcast_flows_;
  std::unordered_set<FlowKey> relayed_flows_;
  std::unordered_set<FlowKey> rushed_flows_;
  NodeId relay_victim_a_ = kInvalidNode;
  NodeId relay_victim_b_ = kInvalidNode;
  /// Sticky lie for AttackParams::fixed_fake_prev.
  mutable NodeId fixed_prev_ = kInvalidNode;
};

}  // namespace lw::attack
