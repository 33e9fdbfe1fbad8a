#include "attack/malicious_agent.h"

#include <algorithm>

#include "obs/recorder.h"

namespace lw::attack {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

}  // namespace

MaliciousAgent::MaliciousAgent(node::NodeEnv& env, nbr::NeighborTable& table,
                               WormholeCoordinator& coordinator)
    : env_(env), table_(table), coordinator_(coordinator) {
  coordinator_.register_agent(this);
}

bool MaliciousAgent::active() const {
  return env_.now() >= coordinator_.params().start_time;
}

void MaliciousAgent::set_relay_victims(NodeId a, NodeId b) {
  relay_victim_a_ = a;
  relay_victim_b_ = b;
}

std::size_t MaliciousAgent::my_route_index(const pkt::Packet& packet) const {
  auto it = std::find(packet.route.begin(), packet.route.end(), env_.id());
  return it == packet.route.end()
             ? kNpos
             : static_cast<std::size_t>(it - packet.route.begin());
}

NodeId MaliciousAgent::fake_prev_hop(NodeId colluder) const {
  if (!coordinator_.params().smart_prev_hop) return colluder;
  if (coordinator_.params().fixed_fake_prev &&
      fixed_prev_ != kInvalidNode) {
    return fixed_prev_;
  }
  // The "smarter" attacker names one of its genuine neighbors, so the
  // two-hop admission check passes and only the guards of that fake link
  // can expose the lie.
  std::vector<NodeId> candidates = table_.active_neighbors();
  std::erase(candidates, colluder);
  if (candidates.empty()) return colluder;
  auto index = env_.rng().uniform_int(0, candidates.size() - 1);
  NodeId choice = candidates[index];
  if (coordinator_.params().fixed_fake_prev) fixed_prev_ = choice;
  return choice;
}

void MaliciousAgent::emit_replay(const pkt::Packet& copy, NodeId peer) const {
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kAttack)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kAtkReplay,
             .node = env_.id(),
             .peer = peer,
             .packet = &copy});
  }
}

bool MaliciousAgent::maybe_drop_data(const pkt::Packet& packet) {
  if (packet.type != pkt::PacketType::kData) return false;
  if (packet.link_dst != env_.id()) return false;
  if (packet.final_dst == env_.id()) return false;  // our own traffic
  if (!coordinator_.params().drop_data) return false;
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kAttack)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kAtkDrop,
             .node = env_.id(),
             .peer = packet.origin,
             .packet = &packet});
  }
  return true;
}

bool MaliciousAgent::intercept(const pkt::Packet& packet) {
  if (!active()) return false;
  if (packet.origin == env_.id()) return false;
  if (maybe_drop_data(packet)) return true;

  switch (coordinator_.params().mode) {
    case WormholeMode::kEncapsulation:
    case WormholeMode::kOutOfBand:
      return intercept_tunnel_modes(packet);
    case WormholeMode::kHighPower:
      return intercept_high_power(packet);
    case WormholeMode::kRelay:
      return intercept_relay(packet);
    case WormholeMode::kRushing:
      return intercept_rushing(packet);
  }
  return false;
}

bool MaliciousAgent::intercept_tunnel_modes(const pkt::Packet& packet) {
  if (packet.type == pkt::PacketType::kRouteRequest) {
    if (packet.final_dst == env_.id()) return false;  // reply honestly
    if (!tunneled_flows_.insert(packet.flow_key()).second) {
      return true;  // duplicate copy of a flow we already tunneled
    }
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route.push_back(env_.id());
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kAttack)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kAtkTunnel,
               .node = env_.id(),
               .packet = &copy});
    }
    coordinator_.tunnel_to_all(env_.id(), copy);
    return true;  // suppress the honest local rebroadcast
  }

  if (packet.type == pkt::PacketType::kRouteReply ||
      packet.type == pkt::PacketType::kData) {
    if (packet.link_dst != env_.id()) return false;
    const std::size_t idx = my_route_index(packet);
    if (idx == kNpos) return false;
    const bool toward_source = packet.type == pkt::PacketType::kRouteReply;
    if (toward_source && idx == 0) return false;  // we are the REQ origin
    if (!toward_source && idx + 1 >= packet.route.size()) return false;
    const NodeId next = toward_source ? packet.route[idx - 1]
                                      : packet.route[idx + 1];
    if (!coordinator_.is_colluder(next)) return false;  // normal forwarding
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route_index = idx;
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kAttack)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kAtkTunnel,
               .node = env_.id(),
               .peer = next,
               .packet = &copy});
    }
    coordinator_.tunnel_to(env_.id(), next, copy);
    return true;
  }
  return false;
}

void MaliciousAgent::on_tunnel(NodeId from_colluder,
                               const pkt::Packet& packet) {
  if (packet.type == pkt::PacketType::kRouteRequest) {
    if (!rebroadcast_flows_.insert(packet.flow_key()).second) return;
    tunneled_flows_.insert(packet.flow_key());  // never tunnel it back
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route.push_back(env_.id());
    copy.announced_prev_hop = fake_prev_hop(from_colluder);
    copy.claimed_tx = kInvalidNode;  // we transmit under our own identity
    copy.link_dst = kInvalidNode;
    emit_replay(copy, from_colluder);
    // No flood jitter: the replay must win the duplicate-suppression race.
    env_.send(std::move(copy));
    return;
  }

  if (packet.type == pkt::PacketType::kRouteReply ||
      packet.type == pkt::PacketType::kData) {
    const std::size_t idx = my_route_index(packet);
    if (idx == kNpos) return;
    const bool toward_source = packet.type == pkt::PacketType::kRouteReply;
    if (toward_source && idx == 0) return;
    if (!toward_source && idx + 1 >= packet.route.size()) return;
    const NodeId next = toward_source ? packet.route[idx - 1]
                                      : packet.route[idx + 1];
    if (coordinator_.is_colluder(next)) {  // multi-colluder chain
      pkt::Packet copy = env_.packet_factory().forward_copy(packet);
      copy.route_index = idx;
      coordinator_.tunnel_to(env_.id(), next, copy);
      return;
    }
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route_index = idx;
    copy.link_dst = next;
    copy.announced_prev_hop = fake_prev_hop(from_colluder);
    copy.claimed_tx = kInvalidNode;
    emit_replay(copy, from_colluder);
    env_.send(std::move(copy));
  }
}

bool MaliciousAgent::intercept_high_power(const pkt::Packet& packet) {
  const double mult = coordinator_.params().high_power_multiplier;
  if (packet.type == pkt::PacketType::kRouteRequest) {
    if (packet.final_dst == env_.id()) return false;
    if (!rushed_flows_.insert(packet.flow_key()).second) return true;
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route.push_back(env_.id());
    // The announcement is truthful; the attack is purely the reach.
    copy.announced_prev_hop = packet.claimed_tx;
    copy.claimed_tx = kInvalidNode;
    emit_replay(copy, kInvalidNode);
    env_.send(std::move(copy), {.range_multiplier = mult});
    return true;
  }
  if ((packet.type == pkt::PacketType::kRouteReply ||
       packet.type == pkt::PacketType::kData) &&
      packet.link_dst == env_.id()) {
    const std::size_t idx = my_route_index(packet);
    if (idx == kNpos) return false;
    const bool toward_source = packet.type == pkt::PacketType::kRouteReply;
    if (toward_source && idx == 0) return false;
    if (!toward_source && idx + 1 >= packet.route.size()) return false;
    pkt::Packet copy = env_.packet_factory().forward_copy(packet);
    copy.route_index = idx;
    copy.link_dst = toward_source ? packet.route[idx - 1]
                                  : packet.route[idx + 1];
    copy.announced_prev_hop = packet.claimed_tx;
    copy.claimed_tx = kInvalidNode;
    env_.send(std::move(copy), {.range_multiplier = mult});
    return true;
  }
  return false;
}

bool MaliciousAgent::intercept_relay(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  if (sender != relay_victim_a_ && sender != relay_victim_b_) return false;
  if (!relayed_flows_.insert(packet.flow_key()).second) return false;
  // Bit-exact replay: same claimed identity, same announcements. The
  // victims are out of each other's range, so only the replay carries the
  // frame across.
  pkt::Packet replay = env_.packet_factory().forward_copy(packet);
  emit_replay(replay, kInvalidNode);
  env_.send(std::move(replay));
  return false;  // keep behaving as an honest insider otherwise
}

bool MaliciousAgent::intercept_rushing(const pkt::Packet& packet) {
  if (packet.type != pkt::PacketType::kRouteRequest) return false;
  if (packet.final_dst == env_.id()) return false;
  if (packet.origin == env_.id()) return false;
  if (!rushed_flows_.insert(packet.flow_key()).second) return true;
  // Protocol-compliant content, deviant timing: no jitter, no carrier
  // sense, no backoff. LITEWORP has nothing to detect here (Section 4.2.3).
  pkt::Packet copy = env_.packet_factory().forward_copy(packet);
  copy.route.push_back(env_.id());
  copy.announced_prev_hop = packet.claimed_tx;
  copy.claimed_tx = kInvalidNode;
  env_.send(std::move(copy), {.skip_backoff = true});
  return true;
}

}  // namespace lw::attack
