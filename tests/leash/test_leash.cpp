// Temporal packet leashes: unit semantics and the comparative story the
// LITEWORP paper tells against them.
#include <gtest/gtest.h>

#include "defense/defense.h"
#include "leash/leash.h"
#include "routing/routing.h"
#include "scenario/runner.h"
#include "tests/liteworp/fake_env.h"

namespace lw::leash {
namespace {

LeashParams params_for_test() {
  LeashParams params;
  params.range = 30.0;
  params.bandwidth_bps = 40000.0;
  params.sync_error = 1e-6;
  params.processing_slack = 1e-6;
  return params;
}

pkt::Packet stamped_packet(double ts) {
  pkt::Packet p;
  p.type = pkt::PacketType::kData;
  p.payload_bytes = 32;
  p.leash_timestamp = ts;
  return p;
}

TEST(LeashChecker, AcceptsInRangeTransmission) {
  LeashChecker checker(params_for_test());
  pkt::Packet p = stamped_packet(10.0);
  const double duration = p.wire_size() * 8.0 / 40000.0;
  const double prop = 25.0 / 3.0e8;  // 25 m away
  EXPECT_TRUE(checker.check(p, 10.0 + duration + prop));
  EXPECT_NEAR(checker.implied_distance(p, 10.0 + duration + prop), 25.0, 1.0);
}

TEST(LeashChecker, RejectsReplayedStaleStamp) {
  LeashChecker checker(params_for_test());
  pkt::Packet p = stamped_packet(10.0);
  const double duration = p.wire_size() * 8.0 / 40000.0;
  // A relay retransmits the frame one frame-time later: the stamp is one
  // whole serialization behind, i.e. thousands of kilometers of "flight".
  EXPECT_FALSE(checker.check(p, 10.0 + 2 * duration + 1e-4));
  EXPECT_EQ(checker.stats().rejected, 1u);
}

TEST(LeashChecker, UnstampedFrameFailsClosed) {
  LeashChecker checker(params_for_test());
  pkt::Packet p;
  p.type = pkt::PacketType::kData;
  EXPECT_FALSE(checker.check(p, 1.0));
}

TEST(LeashChecker, DisabledAcceptsEverything) {
  // Leashes are off when another backend ("none" here) is selected: no
  // checker runs, so even an unstamped frame is admitted.
  test::FakeEnv env(0);
  nbr::NeighborTable table;
  routing::OnDemandRouting routing(env, table, {});
  defense::DefenseConfig off;
  off.name = "none";
  auto backend = defense::make(off, {env, table, routing});
  pkt::Packet p;  // not even stamped
  EXPECT_TRUE(backend->admit(p));
}

TEST(LeashChecker, SyncErrorWidensTheBudget) {
  // High-power shortcut: 90 m of real flight on a fresh stamp.
  pkt::Packet p = stamped_packet(10.0);
  const double duration = p.wire_size() * 8.0 / 40000.0;
  const Time rx = 10.0 + duration + 90.0 / 3.0e8;

  LeashParams tight = params_for_test();
  tight.sync_error = 0.0;
  tight.processing_slack = 0.0;
  LeashChecker perfect_clocks(tight);
  EXPECT_FALSE(perfect_clocks.check(p, rx))
      << "perfect clocks catch the 3x-range shortcut";

  LeashChecker realistic(params_for_test());  // 1 us sync: ~300 m slack
  EXPECT_TRUE(realistic.check(p, rx))
      << "microsecond-level sync cannot see 60 m of extra flight";
}

TEST(GeographicalLeash, AcceptsNearbyRejectsFar) {
  LeashParams params = params_for_test();
  params.mode = LeashMode::kGeographical;
  params.location_error = 5.0;
  LeashChecker checker(params);
  checker.set_own_position(0.0, 0.0);

  pkt::Packet near = stamped_packet(1.0);
  near.leash_located = true;
  near.leash_x = 20.0;
  near.leash_y = 0.0;
  EXPECT_TRUE(checker.check(near, 2.0));

  pkt::Packet far = near;
  far.leash_x = 90.0;  // relayed from 3x range: 90 > 30 + 2*5
  EXPECT_FALSE(checker.check(far, 2.0));

  pkt::Packet unlocated = stamped_packet(1.0);
  EXPECT_FALSE(checker.check(unlocated, 2.0)) << "fails closed";
}

TEST(GeographicalLeash, StopsHighPowerWithoutTightClocks) {
  // The temporal leash needs sub-microsecond sync to see a 3x-range
  // shortcut; the geographical one sees 90 m of distance trivially.
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 60;
  config.seed = 23;
  config.duration = 400.0;
  config.malicious_count = 1;
  config.attack.mode = attack::WormholeMode::kHighPower;
  config.defense.name = "leash";
  config.defense.leash.mode = LeashMode::kGeographical;
  config.finalize();
  auto result = scenario::run_experiment(config);

  auto undefended = config;
  undefended.defense.name = "none";
  undefended.finalize();
  auto baseline = scenario::run_experiment(undefended);

  // The leash tolerates 2x the localization error beyond nominal range, so
  // marginal (~34 m) shortcuts survive; every LONG shortcut must die.
  ASSERT_GT(baseline.wormhole_routes, 20u) << "attack never fired";
  EXPECT_LT(result.wormhole_routes, baseline.wormhole_routes / 5)
      << "the geographic bound must collapse the shortcut count";
}

TEST(GeographicalLeash, StillBlindToInsiderTunnel) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 60;
  config.seed = 21;
  config.duration = 400.0;
  config.malicious_count = 2;
  config.attack.mode = attack::WormholeMode::kOutOfBand;
  config.defense.name = "leash";
  config.defense.leash.mode = LeashMode::kGeographical;
  config.finalize();
  auto result = scenario::run_experiment(config);
  EXPECT_GT(result.wormhole_routes, 0u)
      << "insiders stamp fresh truthful locations at both tunnel ends";
}

// ---- End-to-end comparison: the paper's argument in Section 2 ----

scenario::ExperimentConfig comparison_config(attack::WormholeMode mode,
                                             std::size_t malicious,
                                             std::uint64_t seed) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 60;
  config.seed = seed;
  config.duration = 400.0;
  config.malicious_count = malicious;
  config.attack.mode = mode;
  config.defense.name = "none";  // backends enabled per test
  config.finalize();
  return config;
}

TEST(LeashEndToEnd, StopsReplayWormhole) {
  auto config = comparison_config(attack::WormholeMode::kRelay, 1, 25);
  config.defense.name = "leash";
  config.finalize();
  auto result = scenario::run_experiment(config);
  EXPECT_EQ(result.wormhole_routes, 0u)
      << "replayed frames carry stale stamps";
}

TEST(LeashEndToEnd, BlindToInsiderTunnel) {
  // The paper's core argument: colluding insiders re-stamp at each end,
  // so the leash sees nothing — while LITEWORP isolates them.
  auto leash_only = comparison_config(attack::WormholeMode::kOutOfBand, 2, 21);
  leash_only.defense.name = "leash";
  leash_only.finalize();
  auto leash_result = scenario::run_experiment(leash_only);
  EXPECT_GT(leash_result.wormhole_routes, 0u)
      << "the tunnel must sail through the leash";
  EXPECT_GT(leash_result.data_dropped_malicious, 0u);

  auto liteworp = comparison_config(attack::WormholeMode::kOutOfBand, 2, 21);
  liteworp.defense.name = "liteworp";
  liteworp.finalize();
  auto liteworp_result = scenario::run_experiment(liteworp);
  EXPECT_EQ(liteworp_result.malicious_isolated, 2u);
  EXPECT_LT(liteworp_result.data_dropped_malicious,
            leash_result.data_dropped_malicious);
}

TEST(LeashEndToEnd, HarmlessForHonestTraffic) {
  auto config = comparison_config(attack::WormholeMode::kOutOfBand, 0, 33);
  config.defense.name = "leash";
  config.finalize();
  auto result = scenario::run_experiment(config);
  const double delivery = static_cast<double>(result.data_delivered) /
                          static_cast<double>(result.data_originated);
  EXPECT_GT(delivery, 0.85) << "leash checks must not drop honest frames";
}

}  // namespace
}  // namespace lw::leash
