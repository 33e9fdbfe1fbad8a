// LITEWORP local monitor: guard accounting and the detection that starts an
// alert — driven by hand-crafted packet sequences through a fake
// environment. Alert reception and isolation are pinned for both accusing
// backends in tests/defense/test_alert_protocol.cpp.
#include <gtest/gtest.h>

#include <cmath>

#include "defense/defense.h"
#include "liteworp/monitor.h"
#include "tests/liteworp/fake_env.h"

namespace lw::lite {
namespace {

// Cast of characters (all ids are neighbors of the guard unless noted):
//   kGuard = 0 (us), kX = 1 (handoff node), kA = 2 (watched forwarder),
//   kOther = 3, kFar = 9 (not our neighbor).
constexpr NodeId kGuard = 0;
constexpr NodeId kX = 1;
constexpr NodeId kA = 2;
constexpr NodeId kOther = 3;
constexpr NodeId kFar = 9;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : env_(kGuard),
        routing_(env_, table_, {}),
        monitor_(env_, table_, routing_, params()) {
    table_.add_neighbor(kX);
    table_.add_neighbor(kA);
    table_.add_neighbor(kOther);
    table_.set_neighbor_list(kX, {kGuard, kA, kOther});
    table_.set_neighbor_list(kA, {kGuard, kX, kOther, kFar});
    table_.set_neighbor_list(kOther, {kGuard, kX, kA});
  }

  static LiteworpParams params() {
    LiteworpParams p;  // defaults: V_f=4, V_d=4, C_t=24, kappa=7, gamma=3
    return p;
  }

  /// REQ transmission by `tx` announcing `prev` (kInvalidNode = origin).
  pkt::Packet req(NodeId tx, NodeId prev, NodeId origin, SeqNo seq) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
    p.claimed_tx = tx;
    p.announced_prev_hop = prev;
    p.origin = origin;
    p.seq = seq;
    p.final_dst = 42;
    return p;
  }

  /// REP handoff from `tx` to `to`.
  pkt::Packet rep(NodeId tx, NodeId prev, NodeId to, NodeId origin,
                  SeqNo seq) {
    pkt::Packet p = env_.packet_factory().make(pkt::PacketType::kRouteReply);
    p.claimed_tx = tx;
    p.announced_prev_hop = prev;
    p.link_dst = to;
    p.origin = origin;
    p.seq = seq;
    p.final_dst = 7;
    p.route = {7, to, tx, origin};  // REP runs backward through the route
    return p;
  }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  routing::OnDemandRouting routing_;
  LocalMonitor monitor_;
};

TEST_F(MonitorTest, LegitimateForwardIsBenign) {
  monitor_.observe(req(kX, kInvalidNode, kX, 1));  // X originates
  monitor_.observe(req(kA, kX, kX, 1));            // A forwards
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0);
  EXPECT_FALSE(monitor_.locally_detected(kA));
}

TEST_F(MonitorTest, UnheardFlowForwardRaisesFabrication) {
  // A forwards a REQ the guard never heard from anyone: the wormhole
  // replay signature.
  monitor_.observe(req(kA, kX, kFar, 1));
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), params().malc_fabrication);
}

TEST_F(MonitorTest, MissedHandoffButFlowHeardIsBenign) {
  // Guard heard the flood from kOther but missed kX's copy: benign.
  monitor_.observe(req(kOther, kInvalidNode, kOther, 5));
  monitor_.observe(req(kA, kX, kOther, 5));
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0);
}

TEST_F(MonitorTest, DetectionAfterEnoughFabrications) {
  const int needed = static_cast<int>(std::ceil(
      params().malc_threshold / params().malc_fabrication));  // 5
  for (int i = 0; i < needed - 1; ++i) {
    monitor_.observe(req(kA, kX, kFar, static_cast<SeqNo>(i)));
  }
  EXPECT_FALSE(monitor_.locally_detected(kA));
  EXPECT_FALSE(table_.is_revoked(kA));
  monitor_.observe(req(kA, kX, kFar, 100));
  EXPECT_TRUE(monitor_.locally_detected(kA));
  EXPECT_TRUE(table_.is_revoked(kA));
  EXPECT_EQ(env_.sent_of(pkt::PacketType::kAlert).size(), 1u);
}

TEST_F(MonitorTest, SamePacketCountedOncePerGuard) {
  pkt::Packet replayed = req(kA, kX, kFar, 1);
  for (int i = 0; i < 10; ++i) monitor_.observe(replayed);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), params().malc_fabrication)
      << "link-layer retransmissions must not multiply the evidence";
}

TEST_F(MonitorTest, KappaBlockResetsBelowThreshold) {
  // 4 fabrications (16 < C_t = 24) then 3 benign observations complete the
  // kappa = 7 block and wipe the slate.
  for (int i = 0; i < 4; ++i) {
    monitor_.observe(req(kA, kX, kFar, static_cast<SeqNo>(i)));
  }
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 16.0);
  for (int i = 0; i < 3; ++i) {
    SeqNo seq = static_cast<SeqNo>(50 + i);
    monitor_.observe(req(kX, kInvalidNode, kX, seq));
    monitor_.observe(req(kA, kX, kX, seq));
  }
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0) << "block completed clean";
  monitor_.observe(req(kA, kX, kFar, 99));
  EXPECT_FALSE(monitor_.locally_detected(kA));
}

TEST_F(MonitorTest, RepDropAccusedAfterTimeout) {
  monitor_.observe(rep(kX, kInvalidNode, kA, kX, 1));
  env_.simulator().run_until(params().watch_timeout + 0.1);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), params().malc_drop);
}

TEST_F(MonitorTest, RepForwardClearsDropWatch) {
  monitor_.observe(rep(kX, kInvalidNode, kA, kX, 1));
  // A forwards the REP onward within the deadline.
  monitor_.observe(rep(kA, kX, kOther, kX, 1));
  env_.simulator().run_until(params().watch_timeout + 0.1);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0);
}

TEST_F(MonitorTest, RepDroppedSevenTimesTriggersDetection) {
  // V_d = 4: seven drops cross C_t = 24 within the kappa = 7 block.
  for (SeqNo s = 0; s < 7; ++s) {
    monitor_.observe(rep(kX, kInvalidNode, kA, kX, s));
  }
  env_.simulator().run_until(params().watch_timeout + 0.1);
  EXPECT_TRUE(monitor_.locally_detected(kA));
}

TEST_F(MonitorTest, NoDropWatchWhenRecipientIsRepTarget) {
  // The REP's final recipient (route.front()) has nothing to forward.
  pkt::Packet p = rep(kX, kInvalidNode, kA, kX, 1);
  p.route = {kA, kX, 7};  // kA IS the REP's final destination
  monitor_.observe(p);
  env_.simulator().run_until(params().watch_timeout + 0.1);
  EXPECT_DOUBLE_EQ(monitor_.malc(kA), 0.0);
}

TEST_F(MonitorTest, AlertCarriesPerRecipientTags) {
  const int needed = static_cast<int>(std::ceil(
      params().malc_threshold / params().malc_fabrication));
  for (int i = 0; i < needed; ++i) {
    monitor_.observe(req(kA, kX, kFar, static_cast<SeqNo>(i)));
  }
  auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), 1u);
  const pkt::Packet& alert = alerts[0];
  EXPECT_EQ(alert.accused, kA);
  EXPECT_EQ(alert.accusing_guard, kGuard);
  EXPECT_EQ(alert.ttl, LiteworpParams{}.alert_ttl);
  // Recipients: R_A minus ourselves and the accused.
  ASSERT_FALSE(alert.alert_auth.empty());
  for (const auto& entry : alert.alert_auth) {
    EXPECT_NE(entry.recipient, kGuard);
    EXPECT_NE(entry.recipient, kA);
    EXPECT_TRUE(env_.keys().verify(kGuard, entry.recipient,
                                   alert.auth_payload(), entry.tag));
  }
}

TEST_F(MonitorTest, DisabledMonitorDoesNothing) {
  // Monitoring is off when the "none" backend is selected: the fabrications
  // a LITEWORP guard convicts on revoke nobody.
  defense::DefenseConfig off;
  off.name = "none";
  auto disabled = defense::make(off, {env_, table_, routing_});
  for (int i = 0; i < 10; ++i) {
    disabled->observe(req(kA, kX, kFar, static_cast<SeqNo>(i)));
  }
  EXPECT_EQ(disabled->tag(), obs::DefenseTag::kNone);
  EXPECT_EQ(disabled->cost().watch_entries, 0u) << "no guard, no watch state";
  EXPECT_FALSE(table_.is_revoked(kA));
}

TEST_F(MonitorTest, CostCountsTheWatchBuffer) {
  monitor_.observe(req(kX, kInvalidNode, kX, 1));
  monitor_.observe(req(kA, kX, kX, 1));
  monitor_.observe(rep(kX, kInvalidNode, kA, kX, 2));  // arms a drop watch
  const WatchBuffer& watch = monitor_.watch_buffer();
  ASSERT_EQ(watch.drop_watches(), 1u);
  defense::CostSnapshot cost = monitor_.cost();
  EXPECT_EQ(cost.watch_entries, watch.transmit_records() + watch.drop_watches());
  EXPECT_EQ(cost.watch_entries, 4u) << "three transmit records, one watch";
  EXPECT_EQ(cost.peak_watch_entries, watch.peak_entries());

  // The watch expires (a drop): the live count falls, the peak stays.
  env_.simulator().run_until(params().watch_timeout + 0.1);
  cost = monitor_.cost();
  EXPECT_EQ(watch.drop_watches(), 0u);
  EXPECT_EQ(cost.watch_entries, watch.transmit_records());
  EXPECT_EQ(cost.peak_watch_entries, watch.peak_entries());
  EXPECT_EQ(cost.peak_watch_entries, 4u);
}

TEST_F(MonitorTest, StorageBytesTracksState) {
  monitor_.observe(rep(kX, kInvalidNode, kA, kX, 1));
  EXPECT_GE(monitor_.storage_bytes(), 20u);
}

}  // namespace
}  // namespace lw::lite
