#include "scenario/node.h"

#include "obs/profiler.h"
#include "util/logging.h"

namespace lw::scenario {

Node::Node(NodeId id, const ExperimentConfig& config,
           sim::Simulator& simulator, phy::Medium& medium,
           const crypto::KeyManager& keys, pkt::PacketFactory& factory,
           Rng rng, bool malicious, attack::WormholeCoordinator* coordinator,
           obs::Recorder* recorder)
    : id_(id),
      config_(config),
      simulator_(simulator),
      keys_(keys),
      factory_(factory),
      rng_(rng),
      recorder_(recorder),
      radio_(id),
      mac_(simulator, medium, radio_, Rng(rng_.engine()()), config.mac,
           recorder),
      discovery_(*this, table_, config.discovery),
      join_(*this, table_, config.join),
      routing_(*this, table_, config.routing),
      traffic_(*this, routing_, config.node_count, config.traffic) {
  if (malicious) {
    malicious_agent_ = std::make_unique<attack::MaliciousAgent>(
        *this, table_, *coordinator);
  }
  // The leash is a receive-side filter every node applies (a malicious
  // node still checks stamps on frames it processes); detection backends
  // never run on the nodes they would be detecting.
  if (!malicious || config.defense.name == "leash") {
    defense_ = defense::make(
        config.defense, {.env = *this, .table = table_, .routing = routing_});
  }
  medium.attach(&radio_);
  mac_.set_upcall([this](const pkt::Packet& p) { handle_frame(p); });
}

Node::~Node() = default;

void Node::start(const topo::DiscGraph& graph) {
  deployed_ = true;
  if (config_.oracle_discovery) {
    discovery_.bootstrap_from_oracle(graph);
  } else {
    discovery_.start();
  }
  traffic_.start();
}

void Node::start_late() {
  deployed_ = true;
  join_.start_join();
  traffic_.start_at(simulator_.now() + config_.join.settle_time + 4.0);
}

void Node::enable_hardening(Duration age_timeout, Duration sweep_interval) {
  if (hardening_) return;
  hardening_ = true;
  age_timeout_ = age_timeout;
  sweep_interval_ = sweep_interval;
  harden_start_ = simulator_.now();
  // A next hop that exhausts link-layer retries is unreachable (crashed or
  // isolated): tear down every cached route through it so the next packet
  // re-discovers instead of feeding a black hole.
  mac_.set_send_failed(
      [this](const pkt::Packet& p) { routing_.on_send_failed(p); });
  // Recovery latency: the sample closes when a rebooted node first
  // re-authenticates a neighbor through the challenge-response join.
  join_.set_on_neighbor_gained([this](NodeId) {
    if (recover_started_ < 0.0) return;
    recovery_latencies_.push_back(simulator_.now() - recover_started_);
    recover_started_ = -1.0;
  });
  schedule_age_sweep();
}

void Node::crash() {
  alive_ = false;
  deployed_ = false;
  mac_.reset();
  radio_.reset_timing();
  routing_.reset();
  traffic_.stop();
  join_.reset();
  if (defense_) defense_->reset();
  table_.clear();
  last_heard_.assign(last_heard_.size(), -1.0);
}

void Node::recover() {
  alive_ = true;
  deployed_ = true;
  harden_start_ = simulator_.now();
  recover_started_ = simulator_.now();
  // Identical to a late deployment: the challenge-response join is how a
  // rebooted node proves itself back into its old neighborhood (peers hold
  // it as known-but-not-admitted, so their hellos get re-challenged).
  join_.start_join();
  traffic_.start_at(simulator_.now() + config_.join.settle_time + 4.0);
}

void Node::touch_neighbor(NodeId peer) {
  if (peer == kInvalidNode || peer == id_) return;
  if (peer >= last_heard_.size()) last_heard_.resize(peer + 1, -1.0);
  last_heard_[peer] = simulator_.now();
}

void Node::age_out_neighbors() {
  const Time now = simulator_.now();
  // Copy: expire_neighbor edits the order vector we iterate.
  const std::vector<NodeId> neighbors = table_.neighbors();
  for (NodeId peer : neighbors) {
    if (table_.is_revoked(peer)) continue;  // isolation outlives silence
    const Time heard =
        peer < last_heard_.size() ? last_heard_[peer] : -1.0;
    const Time baseline = heard < 0.0 ? harden_start_ : heard;
    if (now - baseline < age_timeout_) continue;
    LW_INFO << "node " << id_ << " aged out silent neighbor " << peer
            << " at t=" << now;
    table_.expire_neighbor(peer);
    join_.forget(peer);  // its next JOIN_HELLO gets a fresh challenge
    routing_.cache().evict_containing(peer);
  }
}

void Node::schedule_age_sweep() {
  simulator_.schedule(sweep_interval_, [this] {
    if (alive_) age_out_neighbors();
    schedule_age_sweep();
  });
}

void Node::send(pkt::Packet packet, mac::SendOptions options) {
  if (!alive_) return;  // a crashed node's stale timers fire into the void
  if (packet.claimed_tx == kInvalidNode) packet.claimed_tx = id_;
  // A node is a guard of its own outgoing links: feed the defense with the
  // control traffic we transmit so the fabrication/drop checks have our
  // transmit records.
  if (defense_ && pkt::is_watched_control(packet.type)) {
    defense_->observe(packet);
  }
  mac_.send(std::move(packet), options);
}

void Node::handle_frame(const pkt::Packet& packet) {
  if (!deployed_) return;  // not in the field yet (or crashed)
  if (hardening_) touch_neighbor(packet.claimed_tx);

  obs::RunProfiler* profiler = recorder_ ? recorder_->profiler() : nullptr;

  // Promiscuous decode of a unicast meant for someone else: the raw
  // material of both LITEWORP guarding and the watch-buffer bookkeeping.
  if (recorder_ && recorder_->wants(obs::Layer::kMac) &&
      packet.link_dst != kInvalidNode && packet.link_dst != id_) {
    recorder_->emit({.t = simulator_.now(),
                     .kind = obs::EventKind::kMacOverhear,
                     .node = id_,
                     .peer = packet.claimed_tx,
                     .packet = &packet});
  }

  // Byzantine nodes act first; a consumed frame never reaches the honest
  // stack.
  if (malicious_agent_) {
    obs::ScopedTimer timer(profiler, obs::Layer::kAttack);
    if (malicious_agent_->intercept(packet)) return;
  }

  // Honest promiscuous tap: guards watch everything they can decode.
  if (defense_) {
    obs::ScopedTimer timer(profiler, obs::Layer::kMonitor);
    defense_->observe(packet);
  }

  switch (packet.type) {
    case pkt::PacketType::kHello:
    case pkt::PacketType::kHelloReply:
    case pkt::PacketType::kNeighborList: {
      obs::ScopedTimer timer(profiler, obs::Layer::kNeighbor);
      discovery_.handle(packet);
      return;
    }

    case pkt::PacketType::kAlert:
      if (defense_) {
        obs::ScopedTimer timer(profiler, obs::Layer::kMonitor);
        defense_->handle_alert(packet);
      }
      return;

    case pkt::PacketType::kRouteRequest:
    case pkt::PacketType::kRouteReply:
    case pkt::PacketType::kData:
    case pkt::PacketType::kRouteError: {
      // Only frames addressed to us (or broadcast) are processed further.
      if (packet.link_dst != kInvalidNode && packet.link_dst != id_) return;
      // Receiver-side defense verdict (admission checks, leash bounds, or
      // revocation enforcement, depending on the backend).
      if (defense_ && !defense_->admit(packet)) return;
      obs::ScopedTimer timer(profiler, obs::Layer::kRouting);
      routing_.handle(packet);
      return;
    }

    case pkt::PacketType::kJoinHello:
    case pkt::PacketType::kJoinChallenge:
    case pkt::PacketType::kJoinResponse: {
      obs::ScopedTimer timer(profiler, obs::Layer::kNeighbor);
      join_.handle(packet);
      return;
    }

    case pkt::PacketType::kAck:
    case pkt::PacketType::kRts:
    case pkt::PacketType::kCts:
      return;  // consumed inside the MAC; never reaches the node
  }
}

}  // namespace lw::scenario
