// Full-stack routing integration: discovery, reply, data delivery, cache
// reuse — first on an ideal channel, then with collisions enabled.
#include <gtest/gtest.h>

#include "scenario/network.h"
#include "scenario/runner.h"

namespace lw {
namespace {

scenario::ExperimentConfig quiet_config(std::size_t nodes,
                                        std::uint64_t seed) {
  scenario::ExperimentConfig config =
      scenario::ExperimentConfig::table2_defaults();
  config.node_count = nodes;
  config.seed = seed;
  config.malicious_count = 0;
  config.traffic.data_rate = 0.0;  // drive traffic manually
  config.oracle_discovery = true;
  config.finalize();
  return config;
}

TEST(RoutingStack, SingleDiscoveryIdealChannel) {
  scenario::ExperimentConfig config = quiet_config(25, 7);
  config.phy.collisions_enabled = false;
  scenario::Network net(config);

  net.run_until(10.0);
  net.node(0).routing().send_data(net.size() - 1, 32);
  net.run_until(40.0);

  EXPECT_GE(net.recorder().count(obs::EventKind::kRouteEstablished), 1u);
  EXPECT_EQ(net.recorder().count(obs::EventKind::kRouteDeliver), 1u);
  EXPECT_EQ(net.recorder().count(obs::EventKind::kRouteDrop), 0u);
}

TEST(RoutingStack, SingleDiscoveryWithCollisions) {
  int delivered_runs = 0;
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    scenario::ExperimentConfig config = quiet_config(25, 100 + i);
    scenario::Network net(config);
    net.run_until(10.0);
    net.node(0).routing().send_data(net.size() - 1, 32);
    net.run_until(60.0);
    if (net.recorder().count(obs::EventKind::kRouteDeliver) == 1u) {
      ++delivered_runs;
    }
  }
  // A single discovery on an otherwise idle channel should essentially
  // always succeed.
  EXPECT_GE(delivered_runs, kRuns - 1);
}

TEST(RoutingStack, CachedRouteIsReused) {
  scenario::ExperimentConfig config = quiet_config(25, 7);
  config.phy.collisions_enabled = false;
  scenario::Network net(config);

  net.run_until(10.0);
  const NodeId dst = static_cast<NodeId>(net.size() - 1);
  net.node(0).routing().send_data(dst, 32);
  net.run_until(40.0);
  const std::uint64_t discoveries_after_first =
      net.recorder().count(obs::EventKind::kRouteDiscovery);

  net.node(0).routing().send_data(dst, 32);
  net.run_until(45.0);
  EXPECT_EQ(net.recorder().count(obs::EventKind::kRouteDiscovery),
            discoveries_after_first)
      << "second packet must reuse the cached route";
  EXPECT_EQ(net.recorder().count(obs::EventKind::kRouteDeliver), 2u);
}

TEST(RoutingStack, SteadyTrafficDeliversMostPackets) {
  scenario::ExperimentConfig config = quiet_config(30, 11);
  config.traffic.data_rate = 1.0 / 10.0;
  config.finalize();
  scenario::Network net(config);
  net.run_until(300.0);

  const auto r = scenario::RunResult::from_metrics(net);
  ASSERT_GT(r.data_originated, 100u);
  const double delivery_ratio = static_cast<double>(r.data_delivered) /
                                static_cast<double>(r.data_originated);
  EXPECT_GT(delivery_ratio, 0.75)
      << "delivered " << r.data_delivered << " of " << r.data_originated
      << " (no attacker, collisions on)";
  EXPECT_EQ(r.false_isolations, 0u)
      << "honest nodes were isolated without an attacker";
}

}  // namespace
}  // namespace lw
