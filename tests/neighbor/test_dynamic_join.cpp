// Incremental deployment (Sections 4.1 / 7): late nodes join a live
// network through the dynamic challenge-response discovery.
#include <gtest/gtest.h>

#include "scenario/network.h"

namespace lw::nbr {
namespace {

scenario::ExperimentConfig join_config(std::uint64_t seed,
                                       std::size_t joiners = 1) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.seed = seed;
  config.duration = 300.0;
  config.malicious_count = 0;
  config.late_joiners = joiners;
  config.late_join_time = 60.0;
  config.finalize();
  return config;
}

TEST(DynamicJoin, JoinerLearnsItsNeighborhood) {
  auto config = join_config(51);
  scenario::Network net(config);
  const NodeId joiner = static_cast<NodeId>(config.node_count);

  net.run_until(config.late_join_time - 1.0);
  EXPECT_FALSE(net.node(joiner).deployed());
  EXPECT_EQ(net.node(joiner).table().neighbor_count(), 0u);

  net.run_until(config.late_join_time + 30.0);
  const auto& table = net.node(joiner).table();
  const auto& truth = net.graph().neighbors(joiner);
  ASSERT_FALSE(truth.empty()) << "degenerate topology";
  EXPECT_EQ(table.neighbor_count(), truth.size());
  for (NodeId nb : truth) {
    EXPECT_TRUE(table.knows_neighbor(nb)) << "missing neighbor " << nb;
    EXPECT_TRUE(table.has_list_of(nb)) << "missing R_" << nb;
  }
}

TEST(DynamicJoin, NeighborhoodLearnsTheJoiner) {
  auto config = join_config(51);
  scenario::Network net(config);
  const NodeId joiner = static_cast<NodeId>(config.node_count);
  net.run_until(config.late_join_time + 30.0);

  for (NodeId nb : net.graph().neighbors(joiner)) {
    EXPECT_TRUE(net.node(nb).table().knows_neighbor(joiner))
        << "neighbor " << nb << " never admitted the joiner";
    EXPECT_GE(net.node(nb).join_agent().joins_admitted(), 1u);
  }
  // Second-hop knowledge: neighbors' neighbors see the joiner in lists.
  for (NodeId nb : net.graph().neighbors(joiner)) {
    for (NodeId second : net.graph().neighbors(nb)) {
      if (second == joiner) continue;
      if (!net.graph().is_neighbor(second, nb)) continue;
      EXPECT_TRUE(net.node(second).table().in_list_of(nb, joiner))
          << "node " << second << " has a stale R_" << nb;
    }
  }
}

TEST(DynamicJoin, JoinerExchangesDataTraffic) {
  auto config = join_config(52);
  scenario::Network net(config);
  const NodeId joiner = static_cast<NodeId>(config.node_count);
  net.run_until(config.late_join_time + 25.0);
  const auto delivered_before =
      net.recorder().count(obs::EventKind::kRouteDeliver);
  // Drive a flow from the joiner across the network.
  net.node(joiner).routing().send_data(0, 32);
  net.run_until(net.simulator().now() + 40.0);
  EXPECT_GT(net.recorder().count(obs::EventKind::kRouteDeliver),
            delivered_before)
      << "the joiner's packet never arrived";
}

TEST(DynamicJoin, DataFlowsToTheJoinerToo) {
  auto config = join_config(52);
  scenario::Network net(config);
  const NodeId joiner = static_cast<NodeId>(config.node_count);
  net.run_until(config.late_join_time + 25.0);
  const auto delivered_before =
      net.recorder().count(obs::EventKind::kRouteDeliver);
  net.node(5).routing().send_data(joiner, 32);
  net.run_until(net.simulator().now() + 40.0);
  EXPECT_GT(net.recorder().count(obs::EventKind::kRouteDeliver),
            delivered_before);
}

TEST(DynamicJoin, MultipleJoinersAllIntegrate) {
  auto config = join_config(53, /*joiners=*/3);
  scenario::Network net(config);
  net.run_until(config.late_join_time + 3 * config.late_join_stagger + 40.0);
  for (std::size_t j = 0; j < 3; ++j) {
    const NodeId joiner = static_cast<NodeId>(config.node_count + j);
    EXPECT_EQ(net.node(joiner).table().neighbor_count(),
              net.graph().neighbors(joiner).size())
        << "joiner " << joiner;
  }
}

TEST(DynamicJoin, OutsiderWithoutKeysRejected) {
  auto config = join_config(54);
  scenario::Network net(config);
  net.run_until(30.0);

  // Forge a join response to an established node without the pairwise key.
  auto& victim = net.node(3);
  pkt::Packet forged_response;
  forged_response.type = pkt::PacketType::kJoinResponse;
  forged_response.origin = 99;  // fake identity
  forged_response.link_dst = 3;
  forged_response.claimed_tx = 99;
  forged_response.nonce = 12345;
  forged_response.tag = crypto::forge_tag(1);
  victim.join_agent().handle(forged_response);
  EXPECT_FALSE(victim.table().knows_neighbor(99));

  // Even with a pending challenge, a wrong tag must fail: trigger a
  // challenge with a hello first.
  pkt::Packet hello;
  hello.type = pkt::PacketType::kJoinHello;
  hello.origin = 99;
  hello.claimed_tx = 99;
  victim.join_agent().handle(hello);
  EXPECT_GE(victim.join_agent().challenges_issued(), 1u);
  pkt::Packet response = forged_response;  // wrong nonce AND wrong tag
  victim.join_agent().handle(response);
  EXPECT_FALSE(victim.table().knows_neighbor(99));
}

TEST(DynamicJoin, RevokedNodeCannotRejoin) {
  auto config = join_config(55);
  scenario::Network net(config);
  net.run_until(30.0);
  auto& node3 = net.node(3);
  const NodeId revoked = node3.table().neighbors().front();
  node3.table().revoke(revoked);

  pkt::Packet hello;
  hello.type = pkt::PacketType::kJoinHello;
  hello.origin = revoked;
  hello.claimed_tx = revoked;
  const auto before = node3.join_agent().challenges_issued();
  node3.join_agent().handle(hello);
  EXPECT_EQ(node3.join_agent().challenges_issued(), before)
      << "an isolated node must not be re-admitted via the join path";
}

TEST(DynamicJoin, WormholeAfterJoinStillDetected) {
  // The joiner integrates, then the (initial-deployment) colluders open a
  // wormhole: the grown network must still detect and isolate them.
  auto config = join_config(56);
  config.malicious_count = 2;
  config.attack.start_time = 120.0;  // after the join settles
  config.duration = 450.0;
  config.finalize();
  scenario::Network net(config);
  net.run();
  EXPECT_EQ(net.metrics().malicious_isolated_count(), 2u);
  EXPECT_EQ(net.metrics().accusations().false_isolations, 0u);
}

TEST(DynamicJoin, RelayCanForgeAdjacencyDuringJoinKnownLimitation) {
  // The documented limitation (paper's too): the join handshake proves key
  // possession, not proximity. A relay attacker replaying the exchange
  // between the joiner and a distant node forges adjacency. This test
  // DEMONSTRATES the weakness rather than defending against it; closing it
  // needs distance bounding ([15][16] in the paper).
  // Scan seeds for a topology where the attacker sits next to the joiner
  // and has a victim outside the joiner's range.
  for (std::uint64_t seed = 58; seed < 98; ++seed) {
    auto config = join_config(seed);
    config.malicious_count = 1;
    config.attack.mode = attack::WormholeMode::kRelay;
    config.attack.start_time = config.late_join_time - 5.0;
    config.finalize();
    scenario::Network net(config);
    const NodeId joiner = static_cast<NodeId>(config.node_count);
    const NodeId attacker = net.malicious_ids()[0];
    if (!net.graph().is_neighbor(attacker, joiner)) continue;
    NodeId far = kInvalidNode;
    for (NodeId candidate : net.graph().neighbors(attacker)) {
      if (candidate != joiner &&
          !net.graph().is_neighbor(candidate, joiner)) {
        far = candidate;
        break;
      }
    }
    if (far == kInvalidNode) continue;
    net.node(attacker).malicious_agent()->set_relay_victims(joiner, far);

    net.run_until(config.late_join_time + 30.0);
    EXPECT_TRUE(net.node(joiner).table().knows_neighbor(far) ||
                net.node(far).table().knows_neighbor(joiner))
        << "seed " << seed;
    return;
  }
  GTEST_SKIP() << "no suitable topology in the scanned seed range";
  EXPECT_TRUE(true)
      << "(if this fails the relay timing missed the handshake — the "
         "vulnerability window is real but narrow)";
}

TEST(DynamicJoin, OracleModeRejectsJoiners) {
  auto config = join_config(57);
  config.oracle_discovery = true;
  config.finalize();
  EXPECT_THROW(scenario::Network net(config), std::invalid_argument);
}

}  // namespace
}  // namespace lw::nbr
