#include "neighbor/dynamic_join.h"

#include <sstream>

#include "obs/recorder.h"
#include "util/logging.h"

namespace lw::nbr {

DynamicJoinAgent::DynamicJoinAgent(node::NodeEnv& env, NeighborTable& table,
                                   JoinParams params)
    : env_(env), table_(table), params_(params) {}

std::string DynamicJoinAgent::challenge_message(NodeId challenger,
                                                NodeId joiner,
                                                std::uint64_t nonce) const {
  std::ostringstream out;
  out << "join-challenge|" << challenger << '|' << joiner << '|' << nonce;
  return out.str();
}

std::string DynamicJoinAgent::response_message(NodeId joiner,
                                               NodeId challenger,
                                               std::uint64_t nonce) const {
  std::ostringstream out;
  out << "join-response|" << joiner << '|' << challenger << '|' << nonce;
  return out.str();
}

void DynamicJoinAgent::start_join() {
  joining_ = true;
  join_completed_ = false;
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kNeighbor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kNbrJoinStart,
             .node = env_.id()});
  }
  for (int repeat = 0; repeat < params_.hello_repeats; ++repeat) {
    env_.simulator().schedule(repeat * params_.hello_gap,
                              [this, epoch = epoch_] {
                                if (epoch == epoch_) send_join_hello();
                              });
  }
  // Once the handshakes settle, tell the neighborhood who WE can hear
  // (twice: the channel is live and broadcasts are unacknowledged).
  env_.simulator().schedule(params_.settle_time,
                            [this, epoch = epoch_] {
                              if (epoch == epoch_) share_list(kInvalidNode);
                            });
  env_.simulator().schedule(params_.settle_time + 2.0,
                            [this, epoch = epoch_] {
                              if (epoch == epoch_) share_list(kInvalidNode);
                            });
}

void DynamicJoinAgent::forget(NodeId peer) {
  admitted_.erase(peer);
  pending_nonces_.erase(peer);
}

void DynamicJoinAgent::reset() {
  ++epoch_;
  joining_ = false;
  join_completed_ = false;
  pending_nonces_.clear();
  admitted_.clear();
}

void DynamicJoinAgent::send_join_hello() {
  pkt::Packet hello = env_.packet_factory().make(pkt::PacketType::kJoinHello);
  hello.origin = env_.id();
  hello.seq = ++seq_;
  env_.send(std::move(hello));
}

void DynamicJoinAgent::handle(const pkt::Packet& packet) {
  switch (packet.type) {
    case pkt::PacketType::kJoinHello:
      handle_hello(packet);
      break;
    case pkt::PacketType::kJoinChallenge:
      handle_challenge(packet);
      break;
    case pkt::PacketType::kJoinResponse:
      handle_response(packet);
      break;
    default:
      break;
  }
}

void DynamicJoinAgent::handle_hello(const pkt::Packet& packet) {
  const NodeId joiner = packet.origin;
  if (joiner == env_.id()) return;
  if (table_.is_revoked(joiner)) return;  // isolated nodes stay isolated
  if (table_.knows_neighbor(joiner) && admitted_.count(joiner) != 0) return;

  std::uint64_t nonce = env_.rng().engine()();
  pending_nonces_[joiner] = nonce;
  ++challenges_issued_;

  pkt::Packet challenge =
      env_.packet_factory().make(pkt::PacketType::kJoinChallenge);
  challenge.origin = env_.id();
  challenge.final_dst = joiner;
  challenge.link_dst = joiner;
  challenge.seq = ++seq_;
  challenge.nonce = nonce;
  challenge.tag = env_.keys().sign(
      env_.id(), joiner, challenge_message(env_.id(), joiner, nonce));
  env_.send(std::move(challenge));
}

void DynamicJoinAgent::handle_challenge(const pkt::Packet& packet) {
  if (!joining_) return;
  if (packet.link_dst != env_.id()) return;
  const NodeId challenger = packet.origin;
  const std::string message =
      challenge_message(challenger, env_.id(), packet.nonce);
  if (!env_.keys().verify(challenger, env_.id(), message, packet.tag)) {
    LW_DEBUG << "joiner " << env_.id()
             << ": unauthentic challenge claiming " << challenger;
    return;
  }
  // The authenticated challenge proves the challenger holds the pairwise
  // key; links are bidirectional, so it is our neighbor.
  table_.add_neighbor(challenger);
  if (!join_completed_) {
    join_completed_ = true;
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kNeighbor)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kNbrJoinComplete,
               .node = env_.id(),
               .peer = challenger});
    }
  }
  if (on_neighbor_gained_) on_neighbor_gained_(challenger);

  pkt::Packet response =
      env_.packet_factory().make(pkt::PacketType::kJoinResponse);
  response.origin = env_.id();
  response.final_dst = challenger;
  response.link_dst = challenger;
  response.seq = ++seq_;
  response.nonce = packet.nonce;
  response.tag = env_.keys().sign(
      env_.id(), challenger,
      response_message(env_.id(), challenger, packet.nonce));
  env_.send(std::move(response));
}

void DynamicJoinAgent::handle_response(const pkt::Packet& packet) {
  if (packet.link_dst != env_.id()) return;
  const NodeId joiner = packet.origin;
  auto pending = pending_nonces_.find(joiner);
  if (pending == pending_nonces_.end()) return;
  if (pending->second != packet.nonce) return;
  const std::string message =
      response_message(joiner, env_.id(), packet.nonce);
  if (!env_.keys().verify(joiner, env_.id(), message, packet.tag)) {
    LW_DEBUG << "node " << env_.id()
             << ": unauthentic join response claiming " << joiner;
    return;
  }
  pending_nonces_.erase(pending);
  admitted_.insert(joiner);
  table_.add_neighbor(joiner);
  ++joins_admitted_;
  LW_INFO << "node " << env_.id() << " admitted joiner " << joiner
          << " at t=" << env_.now();

  // Give the joiner our list reliably, and refresh the neighborhood's
  // second-hop knowledge (our list now contains the joiner).
  share_list(joiner);
  share_list(kInvalidNode);
}

void DynamicJoinAgent::share_list(NodeId unicast_to) {
  pkt::Packet list = env_.packet_factory().make(pkt::PacketType::kNeighborList);
  list.origin = env_.id();
  list.seq = 1000 + ++seq_;  // distinct from the deployment-time broadcast
  list.link_dst = unicast_to;
  list.neighbor_list = table_.neighbors();
  list.auth_payload_into(auth_buf_);
  list.alert_auth.reserve(list.neighbor_list.size());
  for (NodeId member : list.neighbor_list) {
    list.alert_auth.push_back(
        {member, env_.keys().sign(env_.id(), member, auth_buf_)});
  }
  env_.send(std::move(list));
}

}  // namespace lw::nbr
