#include "neighbor/discovery.h"

#include "obs/recorder.h"

namespace lw::nbr {

Duration discovery_complete_time(const DiscoveryParams& params) {
  // Last list broadcast, plus its jitter, plus slack for MAC queueing and
  // ARQ backoffs (a list broadcast behind a dense reply queue can trail by
  // seconds at 40 kbps — and it MUST leave before the secure window ends).
  return params.list_broadcast_at + params.list_jitter_max + 6.0;
}

DiscoveryAgent::DiscoveryAgent(node::NodeEnv& env, NeighborTable& table,
                               DiscoveryParams params)
    : env_(env), table_(table), params_(params) {}

void DiscoveryAgent::start() {
  env_.simulator().schedule(env_.rng().uniform(0.0, params_.hello_jitter_max),
                            [this] { send_hello(); });
  env_.simulator().schedule(
      params_.list_broadcast_at +
          env_.rng().uniform(0.0, params_.list_jitter_max),
      [this] { broadcast_list(); });
}

void DiscoveryAgent::send_hello() {
  pkt::Packet hello = env_.packet_factory().make(pkt::PacketType::kHello);
  hello.origin = env_.id();
  hello.seq = ++hello_seq_;
  hello_time_ = env_.now();
  hello_sent_ = true;
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kNeighbor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kNbrHello,
             .node = env_.id()});
  }
  env_.send(std::move(hello));
}

const std::string& DiscoveryAgent::reply_auth_message(NodeId replier,
                                                       NodeId announcer,
                                                       SeqNo hello_seq) {
  auth_buf_.clear();
  auth_buf_ += "hello-reply|";
  auth_buf_ += std::to_string(replier);
  auth_buf_ += '|';
  auth_buf_ += std::to_string(announcer);
  auth_buf_ += '|';
  auth_buf_ += std::to_string(hello_seq);
  return auth_buf_;
}

void DiscoveryAgent::send_reply(const pkt::Packet& hello) {
  pkt::Packet reply = env_.packet_factory().make(pkt::PacketType::kHelloReply);
  reply.origin = env_.id();
  reply.final_dst = hello.origin;
  reply.link_dst = hello.origin;
  reply.seq = hello.seq;
  reply.tag = env_.keys().sign(
      env_.id(), hello.origin,
      reply_auth_message(env_.id(), hello.origin, hello.seq));
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kNeighbor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kNbrReply,
             .node = env_.id(),
             .peer = hello.origin});
  }
  // Spread the reply burst that a HELLO provokes from every neighbor.
  env_.simulator().schedule(
      env_.rng().uniform(0.0, params_.reply_jitter_max),
      [this, reply = std::move(reply)]() mutable {
        env_.send(std::move(reply));
      });
}

void DiscoveryAgent::broadcast_list() {
  pkt::Packet list = env_.packet_factory().make(pkt::PacketType::kNeighborList);
  list.origin = env_.id();
  list.seq = 1;
  list.neighbor_list = table_.neighbors();
  list.auth_payload_into(auth_buf_);
  list.alert_auth.reserve(list.neighbor_list.size());
  for (NodeId member : list.neighbor_list) {
    list.alert_auth.push_back(
        {member, env_.keys().sign(env_.id(), member, auth_buf_)});
  }
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kNeighbor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kNbrList,
             .node = env_.id(),
             .value = static_cast<double>(list.neighbor_list.size())});
  }
  env_.send(std::move(list));
}

void DiscoveryAgent::handle(const pkt::Packet& packet) {
  switch (packet.type) {
    case pkt::PacketType::kHello:
      handle_hello(packet);
      break;
    case pkt::PacketType::kHelloReply:
      handle_reply(packet);
      break;
    case pkt::PacketType::kNeighborList:
      handle_list(packet);
      break;
    default:
      break;
  }
}

void DiscoveryAgent::handle_hello(const pkt::Packet& packet) {
  if (packet.origin == env_.id()) return;
  // One reply per announcer; duplicate HELLOs (there should be none) are
  // ignored.
  if (!replied_to_.insert(packet.origin).second) return;
  send_reply(packet);
}

void DiscoveryAgent::handle_reply(const pkt::Packet& packet) {
  if (packet.final_dst != env_.id()) return;
  if (!hello_sent_ || env_.now() > hello_time_ + params_.reply_timeout) return;
  if (packet.seq != hello_seq_) return;
  const std::string& message =
      reply_auth_message(packet.origin, env_.id(), packet.seq);
  if (!env_.keys().verify(packet.origin, env_.id(), message, packet.tag)) {
    ++rejected_replies_;
    return;
  }
  table_.add_neighbor(packet.origin);
}

void DiscoveryAgent::handle_list(const pkt::Packet& packet) {
  if (packet.origin == env_.id()) return;
  packet.auth_payload_into(auth_buf_);
  const std::string& payload = auth_buf_;
  for (const pkt::AlertAuth& entry : packet.alert_auth) {
    if (entry.recipient != env_.id()) continue;
    if (env_.keys().verify(packet.origin, env_.id(), payload, entry.tag)) {
      // A valid per-us tag proves the sender heard OUR reply (it put us in
      // R_A); links are bidirectional, so the sender is our neighbor even
      // if its own HELLO reply to us was lost. This repairs one-sided
      // discovery failures.
      table_.add_neighbor(packet.origin);
      table_.set_neighbor_list(packet.origin, packet.neighbor_list);
    } else {
      ++rejected_lists_;
    }
    return;
  }
}

void DiscoveryAgent::bootstrap_from_oracle(const topo::DiscGraph& graph) {
  const NodeId self = env_.id();
  for (NodeId neighbor : graph.neighbors(self)) {
    table_.add_neighbor(neighbor);
  }
  for (NodeId neighbor : graph.neighbors(self)) {
    table_.set_neighbor_list(neighbor, graph.neighbors(neighbor));
  }
  hello_sent_ = true;
}

}  // namespace lw::nbr
