#include "attack/coordinator.h"

#include <algorithm>

#include "attack/malicious_agent.h"

namespace lw::attack {
namespace {

std::uint64_t pair_key(NodeId a, NodeId b) {
  NodeId lo = std::min(a, b);
  NodeId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

WormholeCoordinator::WormholeCoordinator(sim::Simulator& simulator,
                                         AttackParams params)
    : simulator_(simulator), params_(params) {}

void WormholeCoordinator::register_agent(MaliciousAgent* agent) {
  agents_.push_back(agent);
}

void WormholeCoordinator::set_hop_distance(NodeId a, NodeId b,
                                           std::size_t hops) {
  hop_distance_[pair_key(a, b)] = hops;
}

bool WormholeCoordinator::is_colluder(NodeId id) const {
  return std::any_of(agents_.begin(), agents_.end(),
                     [id](const MaliciousAgent* a) { return a->id() == id; });
}

Duration WormholeCoordinator::tunnel_delay(NodeId a, NodeId b) const {
  if (params_.mode != WormholeMode::kEncapsulation) return 0.0;
  auto it = hop_distance_.find(pair_key(a, b));
  const std::size_t hops = it == hop_distance_.end() ? 1 : it->second;
  return static_cast<double>(hops) * params_.encapsulation_per_hop_delay;
}

void WormholeCoordinator::tunnel_to_all(NodeId from,
                                        const pkt::Packet& packet) {
  for (MaliciousAgent* agent : agents_) {
    if (agent->id() == from) continue;
    tunnel_to(from, agent->id(), packet);
  }
}

void WormholeCoordinator::tunnel_to(NodeId from, NodeId to,
                                    const pkt::Packet& packet) {
  auto it = std::find_if(agents_.begin(), agents_.end(),
                         [to](const MaliciousAgent* a) { return a->id() == to; });
  if (it == agents_.end()) return;
  MaliciousAgent* target = *it;
  pkt::Packet copy = packet;
  copy.crossed_tunnel = true;
  simulator_.schedule(tunnel_delay(from, to),
                      [target, from, copy = std::move(copy)] {
                        target->on_tunnel(from, copy);
                      });
}

}  // namespace lw::attack
