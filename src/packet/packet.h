// Packet model shared by the PHY, MAC, and all protocol agents.
//
// One struct covers every frame type. Two fields matter specially to
// LITEWORP:
//   - announced_prev_hop: every forwarder must announce the immediate
//     source of the packet it forwards (condition (i) of local monitoring);
//   - tx_node: the physical transmitter, filled in by the radio. Honest
//     forwarders have tx-consistent announcements; wormhole endpoints lie
//     in announced_prev_hop, which is exactly what guards catch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::pkt {

enum class PacketType : std::uint8_t {
  kHello = 1,          // neighbor discovery: one-hop broadcast
  kHelloReply = 2,     // authenticated unicast reply to a HELLO
  kNeighborList = 3,   // authenticated broadcast of the sender's R_A
  kRouteRequest = 4,   // flooded REQ with accumulated route record
  kRouteReply = 5,     // unicast REP carrying the full route, reverse path
  kData = 6,           // source-routed data
  kAlert = 7,          // guard accusation, two-hop scoped
  kAck = 8,            // link-layer acknowledgment (MAC-internal)
  kRts = 9,            // request-to-send (MAC-internal, carries NAV)
  kCts = 10,           // clear-to-send (MAC-internal, carries NAV)
  kRouteError = 11,    // broken-route notification back to the source
  kJoinHello = 12,     // late-deployed node announcing itself
  kJoinChallenge = 13, // established node's authenticated nonce challenge
  kJoinResponse = 14,  // joiner's authenticated proof of key possession
};

const char* to_string(PacketType type);

/// True for the control traffic that guards watch (REQ and REP). HELLO
/// traffic is protected by authentication instead, and DATA is out of
/// scope for local monitoring in the paper.
bool is_watched_control(PacketType type);

/// Per-recipient authentication entry carried by ALERT packets: the guard
/// tags the alert once per neighbor of the accused node.
struct AlertAuth {
  NodeId recipient = kInvalidNode;
  crypto::AuthTag tag{};
};

/// Packet-borne lists.
using NodeList = std::vector<NodeId>;
using AlertAuthList = std::vector<AlertAuth>;

struct Packet {
  PacketUid uid = 0;
  /// Causal lineage: the uid of the packet this one ultimately descends
  /// from. Stamped by the factory at creation and inherited verbatim by
  /// forward_copy (honest forwards, wormhole tunneling, replays), so every
  /// trace event carrying a packet can be joined into one hop-by-hop
  /// journey. Simulation bookkeeping — never read by protocol logic.
  LineageId lineage = 0;
  PacketType type = PacketType::kData;

  // ---- Link layer ----
  /// Physical transmitter of this frame, stamped by the medium. Ground
  /// truth for statistics and assertions ONLY — real receivers cannot
  /// identify a transmitter from the waveform, so no protocol logic may
  /// read this field.
  NodeId tx_node = kInvalidNode;
  /// Transmitter identity *claimed in the header*. Honest nodes set it to
  /// their own id; the packet-relay attack spoofs it. All receiver-side
  /// checks use this field.
  NodeId claimed_tx = kInvalidNode;
  /// Link-layer destination; kInvalidNode means local broadcast.
  NodeId link_dst = kInvalidNode;
  /// The immediate source announcement required by local monitoring: "I am
  /// forwarding a packet I received from <announced_prev_hop>". kInvalidNode
  /// on packets that originate at the transmitter.
  NodeId announced_prev_hop = kInvalidNode;

  // ---- End-to-end ----
  NodeId origin = kInvalidNode;
  NodeId final_dst = kInvalidNode;
  /// Sequence number assigned by the origin; (origin, seq, type) identifies
  /// an end-to-end packet for watch-buffer matching and duplicate filtering.
  SeqNo seq = 0;

  /// REQ: route accumulated so far (origin first). REP/DATA: the complete
  /// source route origin..destination.
  NodeList route;
  /// REP/DATA: index into route of the node currently holding the packet.
  std::size_t route_index = 0;

  // ---- Authenticated payloads ----
  /// kNeighborList: the sender's first-hop neighbor list R_A.
  NodeList neighbor_list;
  /// kHelloReply / kNeighborList: pairwise tag (HELLO replies), or the tag
  /// for one recipient; kNeighborList broadcasts carry one tag per listed
  /// neighbor in alert_auth instead.
  crypto::AuthTag tag{};
  /// kAlert and kNeighborList: per-recipient tags.
  AlertAuthList alert_auth;

  // ---- Alert payload ----
  NodeId accused = kInvalidNode;
  NodeId accusing_guard = kInvalidNode;

  // ---- Route-error payload ----
  /// kRouteError: the revoked/unreachable node that broke the route.
  NodeId broken_node = kInvalidNode;

  // ---- Dynamic-join payload ----
  /// kJoinChallenge / kJoinResponse: the challenge nonce.
  std::uint64_t nonce = 0;

  // ---- Packet leashes (comparator defense; Hu et al.) ----
  /// Authenticated transmission timestamp. The medium stamps it at
  /// transmit time ONLY when the claimed sender is the physical
  /// transmitter (only the keyholder can sign a fresh timestamp); a
  /// replayed frame keeps its original, stale stamp. Negative = no leash.
  double leash_timestamp = -1.0;
  /// Authenticated sender location (geographical leash), stamped under
  /// the same only-the-keyholder rule. NaN-free sentinel: stamped flag.
  double leash_x = 0.0;
  double leash_y = 0.0;
  bool leash_located = false;
  /// Remaining link-layer rebroadcasts for two-hop-scoped packets (ALERT).
  std::uint8_t ttl = 0;

  // ---- Data payload ----
  std::uint32_t payload_bytes = 0;

  // ---- Link-layer ARQ / virtual carrier sense ----
  /// kAck/kRts/kCts: uid of the data frame this control frame refers to.
  PacketUid acked_uid = 0;
  /// kRts/kCts: how long the channel stays reserved after this frame ends
  /// (seconds); overhearers defer via NAV.
  double nav_duration = 0.0;

  // ---- Simulation bookkeeping (not "on the wire") ----
  /// True once the packet has crossed a wormhole tunnel; used only by the
  /// metrics layer to classify malicious routes — no protocol logic may
  /// read it.
  bool crossed_tunnel = false;
  /// Time the origin created the end-to-end packet (latency metrics).
  Time created_at = kTimeZero;

  /// Watch-buffer / duplicate-filter key.
  FlowKey flow_key() const {
    return FlowKey{.origin = origin,
                   .type_tag = static_cast<std::uint8_t>(type),
                   .seq = seq};
  }

  /// Serialized size in bytes used for transmission-delay computation.
  std::uint32_t wire_size() const;

  /// Canonical byte string covered by authentication tags. Includes type,
  /// origin, seq and the type-specific payload; excludes mutable link-layer
  /// fields.
  std::string auth_payload() const;

  /// Serializes the auth payload into `out` (cleared first). Agents that
  /// sign or verify per packet keep one buffer and reuse its capacity
  /// instead of building a fresh string each time.
  void auth_payload_into(std::string& out) const;
};

/// Assigns globally unique packet uids. One per simulation run.
class PacketFactory {
 public:
  Packet make(PacketType type) {
    Packet p;
    p.uid = ++last_uid_;
    p.lineage = p.uid;  // a fresh packet starts its own lineage
    p.type = type;
    return p;
  }

  /// Forwarded copy: same end-to-end identity, fresh uid. The route gets
  /// one slot of slack so the forwarder's own append (every REQ hop does
  /// one) lands in place instead of reallocating.
  Packet forward_copy(const Packet& original) {
    Packet p;
    p.route.reserve(original.route.size() + 1);
    p.neighbor_list.reserve(original.neighbor_list.size());
    p.alert_auth.reserve(original.alert_auth.size());
    p = original;
    p.uid = ++last_uid_;
    return p;
  }

 private:
  PacketUid last_uid_ = 0;
};

/// Wire-size model (documented constants; the cost analysis reuses them).
struct WireSizes {
  static constexpr std::uint32_t kBaseHeader = 29;   // type+seq+ids
  static constexpr std::uint32_t kPerRouteHop = 4;   // node id
  static constexpr std::uint32_t kPerNeighbor = 4;   // node id
  static constexpr std::uint32_t kAuthTag = 8;       // truncated HMAC
  static constexpr std::uint32_t kPerAlertAuth = 12; // recipient + tag
  static constexpr std::uint32_t kDefaultDataPayload = 32;
  static constexpr std::uint32_t kAckFrame = 14;     // ids + acked uid
  static constexpr std::uint32_t kRtsFrame = 20;     // ids + uid + duration
  static constexpr std::uint32_t kCtsFrame = 14;     // ids + duration
};

}  // namespace lw::pkt
