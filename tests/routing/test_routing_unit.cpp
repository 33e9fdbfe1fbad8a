// Unit-level routing behaviors driven through a fake environment:
// destination reply policy, congestion suppression, refusal beacons.
#include <gtest/gtest.h>

#include "routing/routing.h"
#include "tests/liteworp/fake_env.h"

namespace lw::routing {
namespace {

class RoutingUnitTest : public ::testing::Test {
 protected:
  RoutingUnitTest() : env_(/*id=*/5), routing_(env_, table_, {}) {
    // Our neighbors 1 and 2 with lists covering the ids used below.
    table_.add_neighbor(1);
    table_.add_neighbor(2);
    table_.set_neighbor_list(1, {5, 9, 7});
    table_.set_neighbor_list(2, {5, 8});
  }

  pkt::Packet req_copy(pkt::NodeList route, NodeId claimed,
                       NodeId origin, SeqNo seq, NodeId dst) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.origin = origin;
    p.seq = seq;
    p.final_dst = dst;
    p.route = std::move(route);
    p.claimed_tx = claimed;
    p.announced_prev_hop = p.route.size() > 1 ? p.route[p.route.size() - 2]
                                              : kInvalidNode;
    return p;
  }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  OnDemandRouting routing_;
};

TEST_F(RoutingUnitTest, DestinationAnswersFirstCopy) {
  routing_.handle(req_copy({9, 1}, 1, 9, 1, /*dst=*/5));
  auto reps = env_.sent_of(pkt::PacketType::kRouteReply);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].route, (pkt::NodeList{9, 1, 5}));
  EXPECT_EQ(reps[0].link_dst, 1u);
}

TEST_F(RoutingUnitTest, DestinationIgnoresEqualOrLongerCopies) {
  routing_.handle(req_copy({9, 1}, 1, 9, 1, 5));
  routing_.handle(req_copy({9, 7, 2}, 2, 9, 1, 5));  // longer copy
  EXPECT_EQ(env_.sent_of(pkt::PacketType::kRouteReply).size(), 1u);
}

TEST_F(RoutingUnitTest, DestinationAnswersStrictlyShorterCopy) {
  routing_.handle(req_copy({9, 7, 1}, 1, 9, 1, 5));
  routing_.handle(req_copy({9, 2}, 2, 9, 1, 5));  // shorter: answer again
  auto reps = env_.sent_of(pkt::PacketType::kRouteReply);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[1].route.size(), 3u);
}

TEST_F(RoutingUnitTest, ForwardWaitsOutJitterThenTransmits) {
  routing_.handle(req_copy({9, 1}, 1, 9, 2, /*dst=*/42));
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kRouteRequest).empty())
      << "forward must be jittered, not instant";
  env_.simulator().run_all();
  auto reqs = env_.sent_of(pkt::PacketType::kRouteRequest);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].route.back(), 5u) << "we append ourselves";
  EXPECT_EQ(reqs[0].announced_prev_hop, 1u);
}

TEST_F(RoutingUnitTest, DuplicateCopiesSuppressThePendingForward) {
  routing_.handle(req_copy({9, 1}, 1, 9, 3, 42));
  routing_.handle(req_copy({9, 7, 1}, 1, 9, 3, 42));
  routing_.handle(req_copy({9, 8, 2}, 2, 9, 3, 42));
  env_.simulator().run_all();
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kRouteRequest).empty())
      << "two extra copies = the neighborhood is covered; forward cancelled";
}

TEST_F(RoutingUnitTest, ExpiredRequestStaysSuppressedUntilTheFilterPurges) {
  auto forwards_of = [&](SeqNo seq) {
    std::size_t n = 0;
    for (const auto& req : env_.sent_of(pkt::PacketType::kRouteRequest)) {
      if (req.origin == 9 && req.seq == seq) ++n;
    }
    return n;
  };
  routing_.handle(req_copy({9, 1}, 1, 9, 1, /*dst=*/42));
  env_.simulator().run_all();
  ASSERT_EQ(forwards_of(1), 1u);

  // Past seen_request_ttl: lookups never check expiry, so the copy is
  // still a duplicate while the filter (1 flow) is below its purge size.
  env_.simulator().schedule(RoutingParams{}.seen_request_ttl + 1.0, [] {});
  env_.simulator().run_all();
  routing_.handle(req_copy({9, 1}, 1, 9, 1, 42));
  // Fill the filter to 255 flows with fresh REQs (origin 8).
  for (SeqNo s = 1; s <= 254; ++s) {
    routing_.handle(req_copy({8, 2}, 2, 8, s, 42));
  }
  routing_.handle(req_copy({9, 1}, 1, 9, 1, 42));
  env_.simulator().run_all();
  EXPECT_EQ(forwards_of(1), 1u) << "255 flows: no purge yet";

  // The 256th flow brings the size to a multiple of 64 that is >= 256: the
  // next lookup purges the expired flow, and the copy is new again.
  routing_.handle(req_copy({8, 2}, 2, 8, 255, 42));
  routing_.handle(req_copy({9, 1}, 1, 9, 1, 42));
  env_.simulator().run_all();
  EXPECT_EQ(forwards_of(1), 2u);
}

TEST_F(RoutingUnitTest, CongestedNodeDoesNotForwardFloods) {
  env_.queue_depth = 64;  // deep MAC backlog
  routing_.handle(req_copy({9, 1}, 1, 9, 4, 42));
  env_.simulator().run_all();
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kRouteRequest).empty());
}

TEST_F(RoutingUnitTest, RefusedRepEmitsBeacon) {
  table_.add_neighbor(9);
  table_.revoke(9);
  // REP heading 8 -> 5 -> 9 (we must forward to revoked 9).
  pkt::Packet rep = env_.packet_factory().make(pkt::PacketType::kRouteReply);
  rep.origin = 8;
  rep.seq = 1;
  rep.final_dst = 7;
  rep.route = {7, 9, 5, 8};
  rep.link_dst = 5;
  rep.claimed_tx = 8;
  routing_.handle(rep);
  EXPECT_EQ(routing_.refused_next_hop_revoked(), 1u);
  auto beacons = env_.sent_of(pkt::PacketType::kRouteError);
  ASSERT_EQ(beacons.size(), 1u);
  EXPECT_EQ(beacons[0].broken_node, 9u);
  EXPECT_EQ(beacons[0].link_dst, kInvalidNode) << "local broadcast";
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kRouteReply).empty());
}

TEST_F(RoutingUnitTest, RefusedDataEmitsRoutedRerr) {
  table_.add_neighbor(9);
  table_.revoke(9);
  // DATA heading 8 -> 5 -> 9 toward destination 7, origin 4.
  pkt::Packet data = env_.packet_factory().make(pkt::PacketType::kData);
  data.origin = 4;
  data.seq = 1;
  data.final_dst = 7;
  data.route = {4, 8, 5, 9, 7};
  data.route_index = 1;
  data.link_dst = 5;
  data.claimed_tx = 8;
  routing_.handle(data);
  auto rerrs = env_.sent_of(pkt::PacketType::kRouteError);
  ASSERT_EQ(rerrs.size(), 1u);
  EXPECT_EQ(rerrs[0].link_dst, 8u) << "RERR travels back toward the source";
  EXPECT_EQ(rerrs[0].final_dst, 4u);
  EXPECT_EQ(rerrs[0].broken_node, 9u);
}

TEST_F(RoutingUnitTest, RerrAtSourceEvictsRoutes) {
  // We (node 5) are the source holding a route through node 9.
  routing_.cache().insert({5, 1, 9, 7}, env_.now());
  pkt::Packet rerr = env_.packet_factory().make(pkt::PacketType::kRouteError);
  rerr.origin = 1;
  rerr.seq = 2;
  rerr.final_dst = 5;
  rerr.route = {5, 1, 9, 7};
  rerr.broken_node = 9;
  rerr.link_dst = 5;
  rerr.claimed_tx = 1;
  routing_.handle(rerr);
  EXPECT_EQ(routing_.cache().lookup(7, env_.now()), nullptr);
}

}  // namespace
}  // namespace lw::routing
