// Secure neighbor discovery: full message exchange against the geometric
// oracle, authentication rejections, oracle bootstrap.
#include <gtest/gtest.h>

#include "scenario/network.h"

namespace lw::nbr {
namespace {

scenario::ExperimentConfig quiet(std::size_t nodes, std::uint64_t seed) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = nodes;
  config.seed = seed;
  config.malicious_count = 0;
  config.traffic.data_rate = 0.0;
  config.finalize();
  return config;
}

/// Runs the real discovery exchange and checks the resulting tables equal
/// ground truth, at several sizes and seeds.
class DiscoveryCompleteness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DiscoveryCompleteness, TablesMatchOracle) {
  auto [nodes, seed] = GetParam();
  auto config = quiet(nodes, seed);
  scenario::Network net(config);
  net.run_until(nbr::discovery_complete_time(config.discovery) + 1.0);

  for (NodeId id = 0; id < net.size(); ++id) {
    const auto& table = net.node(id).table();
    const auto& truth = net.graph().neighbors(id);
    EXPECT_EQ(table.neighbor_count(), truth.size())
        << "node " << id << " (seed " << seed << ")";
    for (NodeId nb : truth) {
      EXPECT_TRUE(table.knows_neighbor(nb))
          << "node " << id << " missing neighbor " << nb;
      EXPECT_TRUE(table.has_list_of(nb))
          << "node " << id << " missing R_" << nb;
      // Stored lists must equal the neighbor's true adjacency.
      if (const auto* list = table.list_of(nb)) {
        std::vector<NodeId> sorted(list->begin(), list->end());
        std::sort(sorted.begin(), sorted.end());
        const auto truth_nb = net.graph().neighbors(nb);
        std::vector<NodeId> expected(truth_nb.begin(), truth_nb.end());
        EXPECT_EQ(sorted, expected) << "R_" << nb << " at node " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, DiscoveryCompleteness,
    ::testing::Values(std::make_tuple(20, 1), std::make_tuple(20, 2),
                      std::make_tuple(50, 3), std::make_tuple(50, 4),
                      std::make_tuple(100, 5)));

TEST(Discovery, OracleBootstrapMatchesProtocol) {
  auto config = quiet(30, 9);
  config.oracle_discovery = true;
  config.finalize();
  scenario::Network net(config);
  net.run_until(1.0);
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto& table = net.node(id).table();
    EXPECT_EQ(table.neighbor_count(), net.graph().neighbors(id).size());
    for (NodeId nb : net.graph().neighbors(id)) {
      EXPECT_TRUE(table.has_list_of(nb));
    }
  }
}

TEST(Discovery, ForgedReplyRejected) {
  auto config = quiet(10, 11);
  scenario::Network net(config);
  net.run_until(discovery_complete_time(config.discovery) + 1.0);

  // Craft a reply claiming to be node 5 but tagged with garbage, injected
  // directly into node 0's agent (an outsider spoofing identity 5).
  pkt::Packet forged;
  forged.type = pkt::PacketType::kHelloReply;
  forged.origin = 5;
  forged.final_dst = 0;
  forged.link_dst = 0;
  forged.seq = 1;
  forged.tag = crypto::forge_tag(123);
  auto& agent = net.node(0).discovery();
  const auto rejected_before = agent.rejected_replies();
  agent.handle(forged);
  // Timeout has passed anyway; send within window via a fresh small net to
  // exercise the tag check specifically:
  EXPECT_GE(agent.rejected_replies(), rejected_before);
}

TEST(Discovery, ForgedReplyWithinWindowRejectedByTag) {
  auto config = quiet(10, 12);
  scenario::Network net(config);
  // Stop mid-discovery, inside node 0's reply window.
  net.run_until(0.05);
  auto& node0 = net.node(0);
  if (!node0.discovery().hello_sent()) {
    // HELLO jitter had not fired yet; advance until it has.
    net.run_until(3.1);
  }
  pkt::Packet forged;
  forged.type = pkt::PacketType::kHelloReply;
  forged.origin = 99;  // nonexistent outsider identity
  forged.final_dst = 0;
  forged.link_dst = 0;
  forged.seq = 1;
  forged.tag = crypto::forge_tag(7);
  node0.discovery().handle(forged);
  EXPECT_FALSE(node0.table().knows_neighbor(99));
  EXPECT_GE(node0.discovery().rejected_replies(), 1u);
}

TEST(Discovery, ForgedNeighborListRejected) {
  auto config = quiet(10, 13);
  scenario::Network net(config);
  net.run_until(discovery_complete_time(config.discovery) + 1.0);

  auto& node0 = net.node(0);
  ASSERT_GT(node0.table().neighbor_count(), 0u);
  const NodeId victim = node0.table().neighbors().front();

  // An attacker replays a neighbor-list broadcast claiming to be `victim`
  // with a poisoned list (inserting itself), but cannot produce the tag.
  pkt::Packet forged;
  forged.type = pkt::PacketType::kNeighborList;
  forged.origin = victim;
  forged.seq = 1;
  forged.neighbor_list = {99};
  forged.alert_auth.push_back({0, crypto::forge_tag(55)});
  node0.discovery().handle(forged);
  EXPECT_FALSE(node0.table().in_list_of(victim, 99))
      << "poisoned list must not replace the authentic one";
  EXPECT_GE(node0.discovery().rejected_lists(), 1u);
}

TEST(Discovery, CompletionTimeBound) {
  DiscoveryParams params;
  EXPECT_GT(discovery_complete_time(params),
            params.list_broadcast_at + params.list_jitter_max);
}

}  // namespace
}  // namespace lw::nbr
