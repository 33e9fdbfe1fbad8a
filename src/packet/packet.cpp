#include "packet/packet.h"

#include <charconv>

namespace lw::pkt {

const char* to_string(PacketType type) {
  switch (type) {
    case PacketType::kHello:
      return "HELLO";
    case PacketType::kHelloReply:
      return "HELLO_REPLY";
    case PacketType::kNeighborList:
      return "NEIGHBOR_LIST";
    case PacketType::kRouteRequest:
      return "REQ";
    case PacketType::kRouteReply:
      return "REP";
    case PacketType::kData:
      return "DATA";
    case PacketType::kAlert:
      return "ALERT";
    case PacketType::kAck:
      return "ACK";
    case PacketType::kRts:
      return "RTS";
    case PacketType::kCts:
      return "CTS";
    case PacketType::kRouteError:
      return "RERR";
    case PacketType::kJoinHello:
      return "JOIN_HELLO";
    case PacketType::kJoinChallenge:
      return "JOIN_CHALLENGE";
    case PacketType::kJoinResponse:
      return "JOIN_RESPONSE";
  }
  return "?";
}

bool is_watched_control(PacketType type) {
  return type == PacketType::kRouteRequest || type == PacketType::kRouteReply;
}

std::uint32_t Packet::wire_size() const {
  std::uint32_t size = WireSizes::kBaseHeader;
  size += WireSizes::kPerRouteHop * static_cast<std::uint32_t>(route.size());
  size += WireSizes::kPerNeighbor *
          static_cast<std::uint32_t>(neighbor_list.size());
  size += WireSizes::kPerAlertAuth *
          static_cast<std::uint32_t>(alert_auth.size());
  switch (type) {
    case PacketType::kHelloReply:
      size += WireSizes::kAuthTag;
      break;
    case PacketType::kData:
      size += payload_bytes;
      break;
    case PacketType::kAck:
      return WireSizes::kAckFrame;  // fixed-size control frames
    case PacketType::kRts:
      return WireSizes::kRtsFrame;
    case PacketType::kCts:
      return WireSizes::kCtsFrame;
    default:
      break;
  }
  return size;
}

namespace {

/// Decimal append without the ostream machinery (same bytes as
/// operator<< for these unsigned fields).
template <typename Str, typename Int>
void append_decimal(Str& out, Int value) {
  char buf[20];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out.append(buf, end);
}

}  // namespace

std::string Packet::auth_payload() const {
  std::string out;
  auth_payload_into(out);
  return out;
}

void Packet::auth_payload_into(std::string& out) const {
  out.clear();
  append_decimal(out, static_cast<int>(type));
  out.push_back('|');
  append_decimal(out, origin);
  out.push_back('|');
  append_decimal(out, seq);
  out.push_back('|');
  append_decimal(out, final_dst);
  switch (type) {
    case PacketType::kNeighborList:
      for (NodeId id : neighbor_list) {
        out.push_back(',');
        append_decimal(out, id);
      }
      break;
    case PacketType::kAlert:
      out.append("|accused=");
      append_decimal(out, accused);
      out.append("|guard=");
      append_decimal(out, accusing_guard);
      break;
    default:
      break;
  }
}

}  // namespace lw::pkt
