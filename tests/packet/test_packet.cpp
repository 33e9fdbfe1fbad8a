// Packet model: wire sizes, flow keys, auth payloads, factory.
#include <gtest/gtest.h>

#include <set>

#include "packet/packet.h"

namespace lw::pkt {
namespace {

TEST(Packet, WireSizeBaseHeader) {
  Packet p;
  p.type = PacketType::kRouteRequest;
  EXPECT_EQ(p.wire_size(), WireSizes::kBaseHeader);
}

TEST(Packet, WireSizeGrowsWithRoute) {
  Packet p;
  p.type = PacketType::kRouteRequest;
  p.route = {1, 2, 3};
  EXPECT_EQ(p.wire_size(),
            WireSizes::kBaseHeader + 3 * WireSizes::kPerRouteHop);
}

TEST(Packet, WireSizeDataIncludesPayload) {
  Packet p;
  p.type = PacketType::kData;
  p.route = {1, 2};
  p.payload_bytes = 32;
  EXPECT_EQ(p.wire_size(),
            WireSizes::kBaseHeader + 2 * WireSizes::kPerRouteHop + 32);
}

TEST(Packet, WireSizeHelloReplyHasTag) {
  Packet p;
  p.type = PacketType::kHelloReply;
  EXPECT_EQ(p.wire_size(), WireSizes::kBaseHeader + WireSizes::kAuthTag);
}

TEST(Packet, WireSizeNeighborListPerMember) {
  Packet p;
  p.type = PacketType::kNeighborList;
  p.neighbor_list = {1, 2, 3, 4};
  p.alert_auth.resize(4);
  EXPECT_EQ(p.wire_size(), WireSizes::kBaseHeader +
                               4 * WireSizes::kPerNeighbor +
                               4 * WireSizes::kPerAlertAuth);
}

TEST(Packet, ControlFramesFixedSize) {
  Packet ack;
  ack.type = PacketType::kAck;
  ack.route = {1, 2, 3, 4, 5};  // must be ignored
  EXPECT_EQ(ack.wire_size(), WireSizes::kAckFrame);
  Packet rts;
  rts.type = PacketType::kRts;
  EXPECT_EQ(rts.wire_size(), WireSizes::kRtsFrame);
  Packet cts;
  cts.type = PacketType::kCts;
  EXPECT_EQ(cts.wire_size(), WireSizes::kCtsFrame);
}

TEST(Packet, FlowKeyIdentifiesEndToEndPacket) {
  Packet a;
  a.type = PacketType::kRouteRequest;
  a.origin = 7;
  a.seq = 42;
  Packet b = a;
  b.tx_node = 99;  // link-layer fields must not matter
  b.announced_prev_hop = 3;
  EXPECT_EQ(a.flow_key(), b.flow_key());
}

TEST(Packet, FlowKeyDistinguishesTypes) {
  Packet req;
  req.type = PacketType::kRouteRequest;
  req.origin = 7;
  req.seq = 42;
  Packet rep = req;
  rep.type = PacketType::kRouteReply;
  EXPECT_NE(req.flow_key(), rep.flow_key());
}

TEST(Packet, FlowKeyHashSpreads) {
  std::set<std::size_t> hashes;
  std::hash<FlowKey> hasher;
  for (NodeId origin = 0; origin < 20; ++origin) {
    for (SeqNo seq = 0; seq < 20; ++seq) {
      hashes.insert(
          hasher(FlowKey{.origin = origin, .type_tag = 4, .seq = seq}));
    }
  }
  EXPECT_GT(hashes.size(), 395u);  // essentially no collisions on 400 keys
}

TEST(Packet, AuthPayloadCoversNeighborList) {
  Packet a;
  a.type = PacketType::kNeighborList;
  a.origin = 3;
  a.seq = 1;
  a.neighbor_list = {5, 6};
  Packet b = a;
  b.neighbor_list = {5, 7};
  EXPECT_NE(a.auth_payload(), b.auth_payload())
      << "tampering with the list must break authentication";
}

TEST(Packet, AuthPayloadCoversAlertFields) {
  Packet a;
  a.type = PacketType::kAlert;
  a.origin = 3;
  a.seq = 1;
  a.accused = 9;
  a.accusing_guard = 3;
  Packet b = a;
  b.accused = 10;
  EXPECT_NE(a.auth_payload(), b.auth_payload());
}

TEST(Packet, AuthPayloadIgnoresLinkFields) {
  Packet a;
  a.type = PacketType::kAlert;
  a.origin = 3;
  a.accused = 9;
  a.accusing_guard = 3;
  Packet b = a;
  b.claimed_tx = 77;
  b.ttl = 1;
  EXPECT_EQ(a.auth_payload(), b.auth_payload())
      << "relayed alerts must still verify";
}

TEST(PacketFactory, UidsUnique) {
  PacketFactory factory;
  std::set<PacketUid> uids;
  for (int i = 0; i < 1000; ++i) {
    uids.insert(factory.make(PacketType::kData).uid);
  }
  EXPECT_EQ(uids.size(), 1000u);
}

TEST(PacketFactory, ForwardCopyKeepsFlowFreshUid) {
  PacketFactory factory;
  Packet original = factory.make(PacketType::kRouteRequest);
  original.origin = 4;
  original.seq = 9;
  Packet copy = factory.forward_copy(original);
  EXPECT_NE(copy.uid, original.uid);
  EXPECT_EQ(copy.flow_key(), original.flow_key());
}

TEST(Packet, IsWatchedControl) {
  EXPECT_TRUE(is_watched_control(PacketType::kRouteRequest));
  EXPECT_TRUE(is_watched_control(PacketType::kRouteReply));
  EXPECT_FALSE(is_watched_control(PacketType::kData));
  EXPECT_FALSE(is_watched_control(PacketType::kAlert));
  EXPECT_FALSE(is_watched_control(PacketType::kHello));
  EXPECT_FALSE(is_watched_control(PacketType::kAck));
  EXPECT_FALSE(is_watched_control(PacketType::kRouteError));
}

}  // namespace
}  // namespace lw::pkt
