// Generic on-demand shortest-path source routing.
//
// The protocol the paper simulates: a source floods a route request (REQ)
// that accumulates the traversed path; the destination answers every copy
// it receives with a route reply (REP) unicast hop-by-hop along the reverse
// path; the source caches the shortest replied path; data is source-routed.
// Every forwarded frame announces its immediate source (the hook local
// monitoring requires), and duplicate REQs are suppressed at intermediate
// nodes — which is exactly why a tunneled REQ that arrives first suppresses
// the legitimate multihop copies and captures the route.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "neighbor/neighbor_table.h"
#include "node/node_env.h"
#include "routing/route_cache.h"
#include "util/flat_map.h"

namespace lw::routing {

struct RoutingParams {
  /// TOut_Route from Table 2.
  Duration route_timeout = 50.0;
  /// Minimum gap between successive REQ floods for the same destination;
  /// generous because a flood takes seconds to traverse the 40 kbps
  /// network and premature re-floods congest the channel.
  Duration discovery_retry_interval = 15.0;
  /// Retry gap doubles per failed flood up to this cap, so a burst of
  /// simultaneous discoveries (every node booting at once) drains instead
  /// of collapsing the channel.
  Duration discovery_retry_max = 120.0;
  /// A node whose MAC queue is this deep stops forwarding new REQ floods
  /// (tail-drop congestion control; flood redundancy covers the gap).
  std::size_t congestion_queue_threshold = 6;
  /// REQ forwards wait a random jitter in [0, this] and are cancelled if
  /// enough duplicate copies are overheard meanwhile.
  Duration forward_jitter_max = 1.2;
  /// Counter-based broadcast suppression (Ni et al.): cancel our pending
  /// flood forward after overhearing this many additional copies — the
  /// neighborhood is already covered. Cuts flood airtime ~3x at N_B = 8,
  /// which a 40 kbps channel needs.
  int broadcast_suppression_copies = 2;
  /// ARAN-style route selection (Section 3.1): the destination answers
  /// only the FIRST REQ copy and the source keeps the first reply, so the
  /// fastest path wins regardless of claimed hop count. The paper notes
  /// this incidentally counters the packet-encapsulation wormhole (the
  /// encapsulated detour is long in real hops, hence slow) but not the
  /// out-of-band one (which genuinely is fast).
  bool prefer_fastest_reply = false;
  /// Data packets waiting for a route, per destination; overflow is dropped.
  std::size_t pending_queue_limit = 20;
  /// How long a REQ (origin, seq) stays in the duplicate filter.
  Duration seen_request_ttl = 30.0;
};

class OnDemandRouting {
 public:
  OnDemandRouting(node::NodeEnv& env, nbr::NeighborTable& table,
                  RoutingParams params);

  /// Application entry point: send `payload_bytes` of data to `destination`,
  /// triggering route discovery if needed.
  void send_data(NodeId destination, std::uint32_t payload_bytes);

  /// Handles an admission-checked REQ/REP/DATA frame heard by this node.
  void handle(const pkt::Packet& packet);

  /// Revocation response: purge routes and pending traffic through `node`.
  void on_revoked(NodeId node);

  /// Link-layer delivery failure (MAC exhausted ARQ retries toward
  /// `packet.link_dst` — typically a crashed or isolated next hop): evict
  /// every cached route through that hop so the next data packet
  /// re-discovers around it. Wired up only on fault-hardened runs.
  void on_send_failed(const pkt::Packet& packet);

  /// Wipes all routing state (node crash): cache, duplicate filters,
  /// pending flood forwards (their events are cancelled) and discovery
  /// queues. The node re-learns routes from scratch after recovery.
  void reset();

  RouteCache& cache() { return cache_; }
  const RouteCache& cache() const { return cache_; }

  /// Frames this node refused to forward because the next hop is revoked.
  std::uint64_t refused_next_hop_revoked() const {
    return refused_next_hop_revoked_;
  }
  /// Data packets this node's application generated, routed or not (the
  /// offered load). Survives reset(): a crash loses routes, not history.
  std::uint64_t data_originated() const { return data_originated_; }

 private:
  struct PendingData {
    std::uint32_t payload_bytes;
    Time created_at;
  };
  struct Discovery {
    std::deque<PendingData> queue;
    Time last_request = -1e9;
    int attempts = 0;
  };

  void handle_request(const pkt::Packet& packet);
  void handle_reply(const pkt::Packet& packet);
  void handle_data(const pkt::Packet& packet);
  void handle_route_error(const pkt::Packet& packet);

  /// Notifies the source of `broken_packet`'s flow that the route died at
  /// this node because `broken` is revoked.
  void send_route_error(const pkt::Packet& broken_packet, NodeId broken);

  /// Local one-hop RERR beacon: announces (to the guards overhearing us)
  /// that we are refusing to forward toward a node we isolated.
  void broadcast_refusal(const pkt::Packet& refused, NodeId broken);

  /// Queues data behind a (possibly new) route discovery.
  void queue_for_discovery(NodeId destination, std::uint32_t payload_bytes,
                           Time created_at);
  void start_discovery(NodeId destination);
  /// Current retry gap for a destination (exponential backoff).
  Duration retry_gap(const Discovery& discovery) const;
  /// Re-floods periodically while data waits for a route.
  void schedule_discovery_retry(NodeId destination);
  void transmit_data(NodeId destination, const Route& route,
                     std::uint32_t payload_bytes, Time created_at);
  void flush_pending(NodeId destination);

  bool seen_before(const FlowKey& key);
  void purge_seen();

  node::NodeEnv& env_;
  nbr::NeighborTable& table_;
  RoutingParams params_;
  RouteCache cache_;

  struct PendingForward {
    int extra_copies = 0;
    sim::EventHandle event;
  };

  SeqNo next_seq_ = 0;
  /// Flood bookkeeping: one entry per REQ copy.
  util::FlatMap<FlowKey, Time> seen_requests_;
  std::unordered_map<FlowKey, PendingForward> pending_forwards_;
  /// Destination-side reply policy: shortest hop count already answered
  /// per REQ flow (answer again only for strictly shorter copies).
  std::unordered_map<FlowKey, std::size_t> replied_requests_;
  std::unordered_map<NodeId, Discovery> discoveries_;
  std::uint64_t refused_next_hop_revoked_ = 0;
  std::uint64_t data_originated_ = 0;
};

}  // namespace lw::routing
