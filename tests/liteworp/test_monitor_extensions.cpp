// Robustness mechanisms around the core monitor: refusal beacons, alert
// retransmission, and the ablation switches.
#include <gtest/gtest.h>

#include <cmath>

#include "liteworp/monitor.h"
#include "tests/liteworp/fake_env.h"

namespace lw::lite {
namespace {

constexpr NodeId kGuard = 0;
constexpr NodeId kX = 1;
constexpr NodeId kA = 2;
constexpr NodeId kOther = 3;
constexpr NodeId kFar = 9;

class MonitorExtensions : public ::testing::Test {
 protected:
  MonitorExtensions()
      : env_(kGuard),
        routing_(env_, table_, {}),
        monitor_(env_, table_, routing_, LiteworpParams{}) {
    table_.add_neighbor(kX);
    table_.add_neighbor(kA);
    table_.add_neighbor(kOther);
    table_.set_neighbor_list(kX, {kGuard, kA, kOther});
    table_.set_neighbor_list(kA, {kGuard, kX, kOther, kFar});
    table_.set_neighbor_list(kOther, {kGuard, kX, kA});
  }

  pkt::Packet rep(NodeId tx, NodeId to, SeqNo seq) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteReply);
    p.claimed_tx = tx;
    p.link_dst = to;
    p.origin = tx;
    p.seq = seq;
    p.final_dst = 7;
    p.route = {7, 8, to, tx};
    return p;
  }

  pkt::Packet refusal_beacon(NodeId tx) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteError);
    p.claimed_tx = tx;
    p.origin = tx;
    p.seq = 99;
    p.broken_node = kFar;
    return p;
  }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  routing::OnDemandRouting routing_;
  LocalMonitor monitor_;
};

TEST_F(MonitorExtensions, RefusalBeaconClearsDropWatches) {
  monitor_.observe(rep(kX, kA, 1));
  monitor_.observe(rep(kX, kA, 2));
  EXPECT_EQ(monitor_.watch_buffer().drop_watches(), 2u);
  // kA audibly refuses a broken route instead of forwarding.
  monitor_.observe(refusal_beacon(kA));
  EXPECT_EQ(monitor_.watch_buffer().drop_watches(), 0u);
  env_.simulator().run_until(LiteworpParams{}.watch_timeout + 0.1);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0) << "no accusation after beacon";
}

TEST_F(MonitorExtensions, RefusalBeaconOnlyExcusesItsSender) {
  monitor_.observe(rep(kX, kA, 1));
  monitor_.observe(refusal_beacon(kOther));  // someone else refused
  env_.simulator().run_until(LiteworpParams{}.watch_timeout + 0.1);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), LiteworpParams{}.malc_drop);
}

TEST_F(MonitorExtensions, OwnBeaconIgnored) {
  monitor_.observe(rep(kX, kA, 1));
  monitor_.observe(refusal_beacon(kGuard));
  EXPECT_EQ(monitor_.watch_buffer().drop_watches(), 1u);
}

TEST_F(MonitorExtensions, GuardSkipsWatchWhenOnwardHopRevokedHere) {
  table_.add_neighbor(8);
  table_.revoke(8);  // we isolated node 8; route says kA must forward to 8
  monitor_.observe(rep(kX, kA, 1));
  EXPECT_EQ(monitor_.watch_buffer().drop_watches(), 0u)
      << "kA is expected to refuse; timing it would punish compliance";
}

TEST_F(MonitorExtensions, AlertsAreRepeatedWithFreshFlows) {
  LiteworpParams params;
  const int needed = static_cast<int>(
      std::ceil(params.malc_threshold / params.malc_fabrication));
  for (int i = 0; i < needed; ++i) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = kA;
    p.announced_prev_hop = kX;
    p.origin = kFar;
    p.seq = static_cast<SeqNo>(i);
    monitor_.observe(p);
  }
  ASSERT_TRUE(monitor_.locally_detected(kA));
  env_.simulator().run_until(params.alert_repeats * params.alert_repeat_gap +
                             1.0);
  auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), static_cast<std::size_t>(params.alert_repeats));
  // Fresh sequence numbers: relays will propagate every repetition.
  EXPECT_NE(alerts[0].seq, alerts[1].seq);
  EXPECT_NE(alerts[1].seq, alerts[2].seq);
  for (const auto& alert : alerts) {
    EXPECT_EQ(alert.accused, kA);
    EXPECT_FALSE(alert.alert_auth.empty());
  }
}

TEST_F(MonitorExtensions, RepeatedAlertsFromOneGuardStillCountOnce) {
  LiteworpParams params;
  for (SeqNo seq : {10u, 11u, 12u}) {
    pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
    alert.origin = kX;
    alert.claimed_tx = kX;
    alert.seq = seq;
    alert.accused = kA;
    alert.accusing_guard = kX;
    alert.alert_auth.push_back(
        {kGuard, env_.keys().sign(kX, kGuard, alert.auth_payload())});
    monitor_.handle_alert(alert);
  }
  EXPECT_EQ(monitor_.alert_count(kA), 1);
  EXPECT_FALSE(table_.is_revoked(kA));
}

TEST_F(MonitorExtensions, StrictLinkCheckAblationConvictsOnMissedHandoff) {
  LiteworpParams strict;
  strict.strict_link_check = true;
  LocalMonitor monitor(env_, table_, routing_, strict);
  // Guard heard the flood from kOther but missed kX's copy: the strict
  // check convicts; the default flow-wide check (MonitorTest) does not.
  pkt::Packet origin_copy =
      env_.packet_factory().make(pkt::PacketType::kRouteRequest);
  origin_copy.claimed_tx = kOther;
  origin_copy.origin = kOther;
  origin_copy.seq = 5;
  monitor.observe(origin_copy);

  pkt::Packet forward =
      env_.packet_factory().make(pkt::PacketType::kRouteRequest);
  forward.claimed_tx = kA;
  forward.announced_prev_hop = kX;
  forward.origin = kOther;
  forward.seq = 5;
  monitor.observe(forward);
  EXPECT_DOUBLE_EQ(monitor.malc(kA), strict.malc_fabrication);
}

TEST_F(MonitorExtensions, DisabledWindowNeverResets) {
  LiteworpParams params;
  params.window_packets = 0;  // ablation: evidence accumulates forever
  LocalMonitor monitor(env_, table_, routing_, params);
  // 3 fabrications then many benign observations; MalC must persist.
  for (int i = 0; i < 3; ++i) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = kA;
    p.announced_prev_hop = kX;
    p.origin = kFar;
    p.seq = static_cast<SeqNo>(i);
    monitor.observe(p);
  }
  for (int i = 0; i < 20; ++i) {
    SeqNo seq = static_cast<SeqNo>(100 + i);
    pkt::Packet tx = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    tx.claimed_tx = kX;
    tx.origin = kX;
    tx.seq = seq;
    monitor.observe(tx);
    pkt::Packet fwd = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    fwd.claimed_tx = kA;
    fwd.announced_prev_hop = kX;
    fwd.origin = kX;
    fwd.seq = seq;
    monitor.observe(fwd);
  }
  EXPECT_DOUBLE_EQ(monitor.malc(kA), 3 * params.malc_fabrication)
      << "no reset ever happens with window_packets = 0";
}

TEST_F(MonitorExtensions, CorroborationLowersTheBar) {
  LiteworpParams params;
  // Two suspicious observations: 8 < 24, no detection on our own.
  for (SeqNo seq : {1u, 2u}) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = kA;
    p.announced_prev_hop = kX;
    p.origin = kFar;
    p.seq = seq;
    monitor_.observe(p);
  }
  EXPECT_FALSE(monitor_.locally_detected(kA));

  // A verified alert about kA arrives: bar drops to corroborated_threshold.
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = kX;
  alert.claimed_tx = kX;
  alert.seq = 50;
  alert.accused = kA;
  alert.accusing_guard = kX;
  alert.alert_auth.push_back(
      {kGuard, env_.keys().sign(kX, kGuard, alert.auth_payload())});
  monitor_.handle_alert(alert);

  // Our 8 points now sit below 12; one more suspicious event crosses it.
  EXPECT_FALSE(monitor_.locally_detected(kA));
  pkt::Packet third = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
  third.claimed_tx = kA;
  third.announced_prev_hop = kX;
  third.origin = kFar;
  third.seq = 3;
  monitor_.observe(third);
  EXPECT_TRUE(monitor_.locally_detected(kA))
      << "8 + 4 = 12 >= corroborated threshold";
}

TEST_F(MonitorExtensions, CorroborationTriggersOnAlertArrival) {
  // Enough standing evidence (12 points) that the bar-drop alone convicts.
  for (SeqNo seq : {1u, 2u, 3u}) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = kA;
    p.announced_prev_hop = kX;
    p.origin = kFar;
    p.seq = seq;
    monitor_.observe(p);
  }
  EXPECT_FALSE(monitor_.locally_detected(kA));
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = kX;
  alert.claimed_tx = kX;
  alert.seq = 51;
  alert.accused = kA;
  alert.accusing_guard = kX;
  alert.alert_auth.push_back(
      {kGuard, env_.keys().sign(kX, kGuard, alert.auth_payload())});
  monitor_.handle_alert(alert);
  EXPECT_TRUE(monitor_.locally_detected(kA));
}

TEST_F(MonitorExtensions, FramingAloneCannotCorroborate) {
  // A malicious guard sends alerts but the monitor holds NO local
  // evidence: the lowered bar has nothing to cross, and gamma distinct
  // guards are still required to isolate.
  for (SeqNo seq : {60u, 61u, 62u}) {
    pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
    alert.origin = kX;
    alert.claimed_tx = kX;
    alert.seq = seq;
    alert.accused = kA;
    alert.accusing_guard = kX;
    alert.alert_auth.push_back(
        {kGuard, env_.keys().sign(kX, kGuard, alert.auth_payload())});
    monitor_.handle_alert(alert);
  }
  EXPECT_FALSE(monitor_.locally_detected(kA));
  EXPECT_FALSE(table_.is_revoked(kA));
}

TEST_F(MonitorExtensions, AlertTtlFollowsParams) {
  LiteworpParams params;
  const int needed = static_cast<int>(std::ceil(
      params.malc_threshold / params.malc_fabrication));
  for (int i = 0; i < needed; ++i) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = kA;
    p.announced_prev_hop = kX;
    p.origin = kFar;
    p.seq = static_cast<SeqNo>(i);
    monitor_.observe(p);
  }
  auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(static_cast<int>(alerts[0].ttl), params.alert_ttl);
}

}  // namespace
}  // namespace lw::lite
