#include "routing/routing.h"

#include <algorithm>

#include "obs/recorder.h"

namespace lw::routing {
namespace {

/// Position of `id` in `path`, or npos.
std::size_t index_in(const pkt::NodeList& path, NodeId id) {
  auto it = std::find(path.begin(), path.end(), id);
  return it == path.end() ? static_cast<std::size_t>(-1)
                          : static_cast<std::size_t>(it - path.begin());
}

}  // namespace

OnDemandRouting::OnDemandRouting(node::NodeEnv& env, nbr::NeighborTable& table,
                                 RoutingParams params)
    : env_(env),
      table_(table),
      params_(params),
      cache_(params.route_timeout) {}

void OnDemandRouting::send_data(NodeId destination,
                                std::uint32_t payload_bytes) {
  if (destination == env_.id()) return;
  const Time now = env_.now();
  // Every generated packet counts as offered load, routed or not.
  ++data_originated_;
  if (const Route* route = cache_.lookup(destination, now)) {
    transmit_data(destination, *route, payload_bytes, now);
    return;
  }
  queue_for_discovery(destination, payload_bytes, now);
}

void OnDemandRouting::queue_for_discovery(NodeId destination,
                                          std::uint32_t payload_bytes,
                                          Time created_at) {
  Discovery& discovery = discoveries_[destination];
  if (discovery.queue.size() >= params_.pending_queue_limit) {
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kRouteDrop,
               .node = env_.id(),
               .peer = destination});
    }
    return;
  }
  discovery.queue.push_back({payload_bytes, created_at});
  if (env_.now() - discovery.last_request >= retry_gap(discovery)) {
    start_discovery(destination);
  }
}

Duration OnDemandRouting::retry_gap(const Discovery& discovery) const {
  Duration gap = params_.discovery_retry_interval;
  for (int i = 1; i < discovery.attempts && gap < params_.discovery_retry_max;
       ++i) {
    gap *= 2.0;
  }
  return std::min(gap, params_.discovery_retry_max);
}

void OnDemandRouting::start_discovery(NodeId destination) {
  Discovery& discovery = discoveries_[destination];
  discovery.last_request = env_.now();
  ++discovery.attempts;

  pkt::Packet req = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
  req.origin = env_.id();
  req.seq = ++next_seq_;
  req.final_dst = destination;
  req.route = {env_.id()};
  req.created_at = env_.now();
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kRouteDiscovery,
             .node = env_.id(),
             .peer = destination,
             .lineage_hint = req.lineage});
  }
  env_.send(std::move(req), {.flood_jitter = false});
  schedule_discovery_retry(destination);
}

void OnDemandRouting::schedule_discovery_retry(NodeId destination) {
  const Duration gap = retry_gap(discoveries_[destination]);
  env_.simulator().schedule(gap, [this, destination] {
    auto it = discoveries_.find(destination);
    if (it == discoveries_.end() || it->second.queue.empty()) return;
    if (cache_.lookup(destination, env_.now()) != nullptr) return;
    // Still no route and data still waiting: flood again.
    if (env_.now() - it->second.last_request >= retry_gap(it->second)) {
      start_discovery(destination);
    }
  });
}

void OnDemandRouting::transmit_data(NodeId destination, const Route& route,
                                    std::uint32_t payload_bytes,
                                    Time created_at) {
  pkt::Packet data = env_.packet_factory().make(pkt::PacketType::kData);
  data.origin = env_.id();
  data.seq = ++next_seq_;
  data.final_dst = destination;
  data.route = route.path;
  data.route_index = 0;
  data.link_dst = route.path[1];
  data.payload_bytes = payload_bytes;
  data.created_at = created_at;
  if (table_.is_revoked(data.link_dst)) {
    // The cached route starts at an isolated node: tear it down and fall
    // back to discovery.
    ++refused_next_hop_revoked_;
    cache_.evict_destination(destination);
    queue_for_discovery(destination, payload_bytes, created_at);
    return;
  }
  // The origin's own handoff is a forward too: with it in the trace, every
  // route.deliver has a same-lineage route.forward upstream (the lw-trace
  // `check` invariant) even on single-hop routes.
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kRouteForward,
             .node = env_.id(),
             .peer = data.link_dst,
             .packet = &data});
  }
  env_.send(std::move(data));
}

void OnDemandRouting::flush_pending(NodeId destination) {
  auto it = discoveries_.find(destination);
  if (it == discoveries_.end()) return;
  const Route* route = cache_.lookup(destination, env_.now());
  if (route == nullptr) return;
  for (const PendingData& pending : it->second.queue) {
    transmit_data(destination, *route, pending.payload_bytes,
                  pending.created_at);
  }
  discoveries_.erase(it);
}

bool OnDemandRouting::seen_before(const FlowKey& key) {
  purge_seen();
  const Time expiry = env_.now() + params_.seen_request_ttl;
  return !seen_requests_.try_emplace(key, expiry).second;
}

void OnDemandRouting::purge_seen() {
  // Amortized cleanup: scan only when the filter has grown noticeably.
  if (seen_requests_.size() < 256 || (seen_requests_.size() & 0x3F) != 0) {
    return;
  }
  const Time now = env_.now();
  seen_requests_.erase_if(
      [now](const FlowKey&, Time expiry) { return expiry <= now; });
}

void OnDemandRouting::handle(const pkt::Packet& packet) {
  switch (packet.type) {
    case pkt::PacketType::kRouteRequest:
      handle_request(packet);
      break;
    case pkt::PacketType::kRouteReply:
      handle_reply(packet);
      break;
    case pkt::PacketType::kData:
      handle_data(packet);
      break;
    case pkt::PacketType::kRouteError:
      handle_route_error(packet);
      break;
    default:
      break;
  }
}

void OnDemandRouting::handle_request(const pkt::Packet& packet) {
  if (packet.origin == env_.id()) return;

  if (packet.final_dst == env_.id()) {
    // The destination answers the first copy and every strictly shorter
    // later copy (the source keeps the best route). Answering every copy,
    // as the idealized protocol would, only adds REP storms on a 40 kbps
    // channel without changing which route wins.
    auto [it, first_copy] =
        replied_requests_.try_emplace(packet.flow_key(), packet.route.size());
    if (!first_copy) {
      // ARAN mode: the race is already decided; hop-count claims on later
      // copies are ignored.
      if (params_.prefer_fastest_reply) return;
      if (packet.route.size() >= it->second) return;
      it->second = packet.route.size();
    }
    pkt::Packet rep = env_.packet_factory().make(pkt::PacketType::kRouteReply);
    rep.origin = env_.id();
    rep.seq = ++next_seq_;
    rep.final_dst = packet.origin;
    rep.route = packet.route;
    rep.route.push_back(env_.id());
    rep.route_index = rep.route.size() - 1;
    rep.link_dst = rep.route[rep.route_index - 1];
    rep.created_at = env_.now();
    rep.crossed_tunnel = packet.crossed_tunnel;
    if (table_.is_revoked(rep.link_dst)) {
      ++refused_next_hop_revoked_;
      return;
    }
    env_.send(std::move(rep));
    return;
  }

  const FlowKey flow = packet.flow_key();
  if (auto it = pending_forwards_.find(flow); it != pending_forwards_.end()) {
    // Another copy while our forward is still jittering: the neighborhood
    // is being covered without us.
    if (++it->second.extra_copies >= params_.broadcast_suppression_copies) {
      it->second.event.cancel();
      pending_forwards_.erase(it);
    }
    return;
  }
  if (seen_before(flow)) return;
  if (index_in(packet.route, env_.id()) != static_cast<std::size_t>(-1)) {
    return;  // loop
  }
  if (env_.mac_queue_depth() >= params_.congestion_queue_threshold) {
    return;  // congested: let less-loaded neighbors carry the flood
  }

  pkt::Packet fwd = env_.packet_factory().forward_copy(packet);
  fwd.route.push_back(env_.id());
  fwd.announced_prev_hop = packet.claimed_tx;
  fwd.claimed_tx = kInvalidNode;  // node stamps own id on send
  const Duration jitter =
      env_.rng().uniform(0.0, params_.forward_jitter_max);
  sim::EventHandle event = env_.simulator().schedule_cancellable(
      jitter, [this, flow, fwd = std::move(fwd)]() mutable {
        pending_forwards_.erase(flow);
        env_.send(std::move(fwd));
      });
  pending_forwards_.emplace(flow, PendingForward{0, std::move(event)});
}

void OnDemandRouting::handle_reply(const pkt::Packet& packet) {
  if (packet.link_dst != env_.id()) return;
  const std::size_t my_index = index_in(packet.route, env_.id());
  if (my_index == static_cast<std::size_t>(-1)) return;

  if (my_index == 0) {
    // We are the REQ origin: the route is usable end to end.
    const NodeId destination = packet.route.back();
    if (params_.prefer_fastest_reply &&
        cache_.peek(destination, env_.now()) != nullptr) {
      return;  // first reply won; later (shorter-claiming) ones lose
    }
    if (cache_.insert(packet.route, env_.now())) {
      if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
        r->emit({.t = env_.now(),
                 .kind = obs::EventKind::kRouteEstablished,
                 .node = env_.id(),
                 .peer = destination,
                 .value = static_cast<double>(packet.route.size() - 1),
                 .packet = &packet});
      }
    }
    flush_pending(destination);
    return;
  }

  pkt::Packet fwd = env_.packet_factory().forward_copy(packet);
  fwd.route_index = my_index;
  fwd.link_dst = packet.route[my_index - 1];
  fwd.announced_prev_hop = packet.claimed_tx;
  fwd.claimed_tx = kInvalidNode;
  if (table_.is_revoked(fwd.link_dst)) {
    // Refusing a REP whose next hop we isolated. Say so audibly: the
    // guards timing this handoff would otherwise convict us of silently
    // dropping it.
    ++refused_next_hop_revoked_;
    broadcast_refusal(packet, fwd.link_dst);
    return;
  }
  env_.send(std::move(fwd));
}

void OnDemandRouting::broadcast_refusal(const pkt::Packet& refused,
                                        NodeId broken) {
  pkt::Packet beacon = env_.packet_factory().make(pkt::PacketType::kRouteError);
  beacon.origin = env_.id();
  beacon.seq = ++next_seq_;
  beacon.final_dst = env_.id();  // local beacon: not forwarded by anyone
  beacon.route = refused.route;
  beacon.broken_node = broken;
  env_.send(std::move(beacon));
}

void OnDemandRouting::handle_data(const pkt::Packet& packet) {
  if (packet.link_dst != env_.id()) return;

  if (packet.final_dst == env_.id()) {
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kRouteDeliver,
               .node = env_.id(),
               .peer = packet.origin,
               .value = env_.now() - packet.created_at,
               .packet = &packet});
    }
    return;
  }

  const std::size_t my_index = index_in(packet.route, env_.id());
  if (my_index == static_cast<std::size_t>(-1) ||
      my_index + 1 >= packet.route.size()) {
    return;
  }
  pkt::Packet fwd = env_.packet_factory().forward_copy(packet);
  fwd.route_index = my_index;
  fwd.link_dst = packet.route[my_index + 1];
  fwd.announced_prev_hop = packet.claimed_tx;
  fwd.claimed_tx = kInvalidNode;
  if (table_.is_revoked(fwd.link_dst)) {
    ++refused_next_hop_revoked_;
    send_route_error(packet, fwd.link_dst);
    return;
  }
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kRouteForward,
             .node = env_.id(),
             .peer = fwd.link_dst,
             .packet = &packet});
  }
  env_.send(std::move(fwd));
}

void OnDemandRouting::send_route_error(const pkt::Packet& broken_packet,
                                       NodeId broken) {
  const std::size_t my_index = index_in(broken_packet.route, env_.id());
  if (my_index == static_cast<std::size_t>(-1) || my_index == 0) return;
  pkt::Packet rerr = env_.packet_factory().make(pkt::PacketType::kRouteError);
  rerr.origin = env_.id();
  rerr.seq = ++next_seq_;
  rerr.final_dst = broken_packet.origin;
  rerr.route = broken_packet.route;
  rerr.route_index = my_index;
  rerr.broken_node = broken;
  rerr.link_dst = broken_packet.route[my_index - 1];
  if (table_.is_revoked(rerr.link_dst)) return;  // no way back either
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kRouting)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kRouteError,
             .node = env_.id(),
             .peer = broken});
  }
  env_.send(std::move(rerr));
}

void OnDemandRouting::handle_route_error(const pkt::Packet& packet) {
  if (packet.link_dst != env_.id()) return;
  const std::size_t my_index = index_in(packet.route, env_.id());
  if (my_index == static_cast<std::size_t>(-1)) return;

  if (my_index == 0) {
    // We are the flow source: every cached route through the broken node
    // is dead; the next data packet re-discovers.
    cache_.evict_containing(packet.broken_node);
    return;
  }
  pkt::Packet fwd = env_.packet_factory().forward_copy(packet);
  fwd.route_index = my_index;
  fwd.link_dst = packet.route[my_index - 1];
  fwd.announced_prev_hop = packet.claimed_tx;
  fwd.claimed_tx = kInvalidNode;
  if (table_.is_revoked(fwd.link_dst)) return;
  env_.send(std::move(fwd));
}

void OnDemandRouting::on_revoked(NodeId node) {
  cache_.evict_containing(node);
  // Pending data keeps waiting; the next retry re-floods and discovers a
  // clean route around the revoked node.
}

void OnDemandRouting::on_send_failed(const pkt::Packet& packet) {
  const NodeId dead_hop = packet.link_dst;
  if (dead_hop == kInvalidNode) return;
  cache_.evict_containing(dead_hop);
  // As with a revocation, queued data waits for the retry flood, which
  // will route around the unreachable hop (or fail and re-flood later).
}

void OnDemandRouting::reset() {
  cache_.clear();
  seen_requests_.clear();
  for (auto& [flow, pending] : pending_forwards_) {
    (void)flow;
    pending.event.cancel();
  }
  pending_forwards_.clear();
  replied_requests_.clear();
  discoveries_.clear();
  // next_seq_ is NOT reset: post-recovery REQs must not collide with
  // pre-crash (origin, seq) flows still sitting in neighbors' duplicate
  // filters.
}

}  // namespace lw::routing
