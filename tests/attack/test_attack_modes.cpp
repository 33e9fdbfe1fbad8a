// The five wormhole attack modes (Section 3), end to end: each mode must
// succeed against the unprotected baseline and be handled by LITEWORP as
// the paper claims (all but protocol deviation).
#include <gtest/gtest.h>

#include <memory>

#include "attack/modes.h"
#include "scenario/runner.h"

namespace lw::attack {
namespace {

TEST(AttackTaxonomy, TableOneContents) {
  const auto& table = attack_mode_table();
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0].min_compromised_nodes, 2);  // encapsulation
  EXPECT_EQ(table[1].min_compromised_nodes, 2);  // out-of-band
  EXPECT_EQ(table[2].min_compromised_nodes, 1);  // high power
  EXPECT_EQ(table[3].min_compromised_nodes, 1);  // relay
  EXPECT_EQ(table[4].min_compromised_nodes, 1);  // protocol deviation
  int detected = 0;
  for (const auto& row : table) {
    if (row.detected_by_liteworp) ++detected;
  }
  EXPECT_EQ(detected, 4) << "LITEWORP handles all but protocol deviation";
  EXPECT_FALSE(table[4].detected_by_liteworp);
}

TEST(AttackTaxonomy, ColluderRequirement) {
  EXPECT_TRUE(needs_colluders(WormholeMode::kEncapsulation));
  EXPECT_TRUE(needs_colluders(WormholeMode::kOutOfBand));
  EXPECT_FALSE(needs_colluders(WormholeMode::kHighPower));
  EXPECT_FALSE(needs_colluders(WormholeMode::kRelay));
  EXPECT_FALSE(needs_colluders(WormholeMode::kRushing));
}

scenario::ExperimentConfig attack_config(WormholeMode mode,
                                         std::size_t malicious,
                                         bool liteworp, std::uint64_t seed) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 60;
  config.seed = seed;
  config.duration = 500.0;
  config.malicious_count = malicious;
  config.attack.mode = mode;
  config.attack.start_time = 50.0;
  config.defense.name = liteworp ? "liteworp" : "none";
  config.finalize();
  return config;
}

// ---- Modes 1 & 2: tunnel wormholes ----

class TunnelModes : public ::testing::TestWithParam<WormholeMode> {};

TEST_P(TunnelModes, BaselineEstablishesWormholeAndDropsTraffic) {
  auto result = scenario::run_experiment(
      attack_config(GetParam(), 2, /*liteworp=*/false, 21));
  EXPECT_GT(result.wormhole_routes, 0u)
      << "the tunnel must capture at least one route";
  EXPECT_GT(result.data_dropped_malicious, 20u);
  EXPECT_EQ(result.local_detections, 0u) << "baseline has no monitoring";
}

TEST_P(TunnelModes, LiteworpDetectsAndIsolates) {
  auto result = scenario::run_experiment(
      attack_config(GetParam(), 2, /*liteworp=*/true, 21));
  EXPECT_EQ(result.malicious_isolated, 2u);
  ASSERT_TRUE(result.isolation_latency.has_value());
  EXPECT_LT(*result.isolation_latency, 120.0);
  EXPECT_EQ(result.false_isolations, 0u);
  // Damage is bounded by the isolation latency.
  EXPECT_LT(result.fraction_dropped(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Tunnels, TunnelModes,
                         ::testing::Values(WormholeMode::kOutOfBand,
                                           WormholeMode::kEncapsulation));

TEST(TunnelModes, EncapsulationSlowerThanOutOfBand) {
  // The encapsulated tunnel pays per-hop latency; out-of-band is instant.
  // Both still win route races (they skip queueing at every relay).
  auto oob = scenario::run_experiment(
      attack_config(WormholeMode::kOutOfBand, 2, false, 22));
  auto encap = scenario::run_experiment(
      attack_config(WormholeMode::kEncapsulation, 2, false, 22));
  EXPECT_GT(oob.wormhole_routes + encap.wormhole_routes, 0u);
}

// ---- Mode 3: high-power transmission ----

TEST(HighPowerMode, BaselineShortcutsRoutes) {
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kHighPower, 1, false, 23));
  // Routes containing a physically impossible hop (beyond nominal range).
  EXPECT_GT(result.wormhole_routes, 0u);
  EXPECT_GT(result.data_dropped_malicious, 0u);
}

TEST(HighPowerMode, LiteworpRejectsFarSender) {
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kHighPower, 1, true, 23));
  // Far receivers reject the non-neighbor sender, so the shortcut never
  // enters a route.
  EXPECT_EQ(result.wormhole_routes, 0u);
  EXPECT_EQ(result.false_isolations, 0u);
  EXPECT_LT(result.fraction_dropped(), 0.05);
}

// ---- Mode 4: packet relay ----

TEST(RelayMode, BaselineCreatesFakeLink) {
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kRelay, 1, false, 25));
  EXPECT_GT(result.wormhole_replays, 0u) << "relay never fired";
  EXPECT_GT(result.wormhole_routes, 0u)
      << "some route must contain the fake victim-victim link";
}

TEST(RelayMode, LiteworpRejectsRelayedFrames) {
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kRelay, 1, true, 25));
  EXPECT_EQ(result.wormhole_routes, 0u)
      << "victims know they are not neighbors and reject the replay";
  EXPECT_EQ(result.false_isolations, 0u);
}

// ---- Mode 5: protocol deviation (rushing) ----

TEST(RushingMode, AttractsRoutesInBaseline) {
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kRushing, 1, false, 28));
  EXPECT_GT(result.routes_via_malicious, 0u);
  EXPECT_GT(result.data_dropped_malicious, 0u);
}

TEST(RushingMode, NotDetectedByLiteworp) {
  // The paper's stated limitation: rushing deviates only in timing, which
  // local monitoring cannot see.
  auto result = scenario::run_experiment(
      attack_config(WormholeMode::kRushing, 1, true, 28));
  EXPECT_EQ(result.malicious_isolated, 0u);
  EXPECT_GT(result.data_dropped_malicious, 0u)
      << "the rusher keeps dropping data unchallenged";
}

// ---- Dormancy ----

TEST(AttackTiming, NoDamageBeforeStartTime) {
  auto config = attack_config(WormholeMode::kOutOfBand, 2, false, 29);
  scenario::Network net(config);
  net.run_until(config.attack.start_time - 1.0);
  EXPECT_EQ(net.recorder().count(obs::EventKind::kAtkDrop), 0u);
  EXPECT_EQ(net.metrics().wormhole_routes, 0u);
}

// ---- Ground truth in the trace: every replaying mode emits atk.replay ----

// The single-node modes replay frames as the tunnel modes do, so their
// replays reach the trace and anchor an incident's first malicious act.
// Data dropping is off, leaving the replays as the attacker's only acts,
// and three compromised guards accuse the attacker: LITEWORP rejects these
// modes at admission and never convicts them on its own evidence.
std::unique_ptr<scenario::Network> run_accused(WormholeMode mode,
                                               std::uint64_t seed) {
  auto config = attack_config(mode, 1, /*liteworp=*/true, seed);
  config.duration = 300.0;
  config.attack.drop_data = false;
  config.obs.trace = true;
  config.obs.trace_layers = obs::layer_bit(obs::Layer::kAttack);
  config.obs.forensics = true;
  NodeId attacker;
  {
    scenario::Network pick(config);
    attacker = pick.malicious_ids().at(0);
  }
  config.fault.framings.push_back({.victim = attacker, .guards = 3,
                                   .start = 150.0});
  config.finalize();
  auto net = std::make_unique<scenario::Network>(config);
  net->run();
  return net;
}

TEST(SingleNodeModes, HighPowerReplaysAnchorTheIncident) {
  const auto run = run_accused(WormholeMode::kHighPower, 25);
  const scenario::Network& net = *run;
  EXPECT_GT(net.recorder().count(obs::EventKind::kAtkReplay), 0u);
  EXPECT_NE(net.trace_jsonl().find(R"("layer":"atk","event":"replay")"),
            std::string::npos);
  const auto incidents = net.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_TRUE(incidents[0].true_positive());
  EXPECT_TRUE(incidents[0].isolated());
  EXPECT_GE(incidents[0].first_malicious_act,
            net.config().attack.start_time);
}

TEST(SingleNodeModes, RelayReplaysGiveADetectionLatency) {
  const auto run = run_accused(WormholeMode::kRelay, 25);
  const scenario::Network& net = *run;
  EXPECT_GT(net.recorder().count(obs::EventKind::kAtkReplay), 0u);
  EXPECT_NE(net.trace_jsonl().find(R"("layer":"atk","event":"replay")"),
            std::string::npos);
  const auto incidents = net.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_TRUE(incidents[0].true_positive());
  EXPECT_TRUE(incidents[0].isolated());
  EXPECT_GE(incidents[0].first_malicious_act,
            net.config().attack.start_time);
  EXPECT_GT(incidents[0].detection_latency(), 0.0);
}

}  // namespace
}  // namespace lw::attack
