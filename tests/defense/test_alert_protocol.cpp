// The authenticated ALERT protocol shared by the two accusing backends
// (LITEWORP and the z-score detector): sending with per-recipient tags and
// scheduled repeats, the rate-limited re-alert rule, verification, relay,
// gamma-isolation and crash reset. One parameterized suite, built through
// defense::make on the fake environment, pins the same behaviour for both.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "defense/defense.h"
#include "defense/zscore.h"
#include "tests/liteworp/fake_env.h"

namespace lw::defense {
namespace {

// Cast of characters (all ids are neighbors of the guard unless noted):
//   kGuard = 0 (us), kX = 1 and kOther = 3 (honest forwarders and fellow
//   guards of kA), kA = 2 (the accused), kFar = 9 (a neighbor of kA but not
//   ours: flows originating beyond earshot).
constexpr NodeId kGuard = 0;
constexpr NodeId kX = 1;
constexpr NodeId kA = 2;
constexpr NodeId kOther = 3;
constexpr NodeId kFar = 9;

class AlertProtocolTest : public ::testing::TestWithParam<std::string> {
 protected:
  AlertProtocolTest() : env_(kGuard), routing_(env_, table_, {}) {
    table_.add_neighbor(kX);
    table_.add_neighbor(kA);
    table_.add_neighbor(kOther);
    table_.set_neighbor_list(kX, {kGuard, kA, kOther});
    table_.set_neighbor_list(kA, {kGuard, kX, kOther, kFar});
    table_.set_neighbor_list(kOther, {kGuard, kX, kA});
    defense_ = build(config());
  }

  /// The backend under test with default alert values (gamma 3, 3 repeats
  /// 4 s apart, TTL 2, re-alert interval 30 s). Z-score needs 4 judged
  /// forwards per neighbor, so both backends convict within a few frames.
  DefenseConfig config() const {
    DefenseConfig c;
    c.name = GetParam();
    c.zscore.min_samples = 4;
    return c;
  }

  std::unique_ptr<Defense> build(const DefenseConfig& c) {
    return make(c, Wiring{env_, table_, routing_});
  }

  bool locally_detected(const Defense& d, NodeId suspect) const {
    if (const auto* monitor = dynamic_cast<const lite::LocalMonitor*>(&d)) {
      return monitor->locally_detected(suspect);
    }
    return static_cast<const ZScoreDefense&>(d).locally_detected(suspect);
  }

  /// The backend's own evidence against `suspect`: LITEWORP's MalC
  /// counter, the z-score detector's anomaly rate.
  double evidence(const Defense& d, NodeId suspect) const {
    if (const auto* monitor = dynamic_cast<const lite::LocalMonitor*>(&d)) {
      return monitor->malc(suspect);
    }
    return static_cast<const ZScoreDefense&>(d).anomaly_rate(suspect);
  }

  int alert_count(const Defense& d, NodeId suspect) const {
    if (const auto* monitor = dynamic_cast<const lite::LocalMonitor*>(&d)) {
      return monitor->alert_count(suspect);
    }
    return static_cast<const ZScoreDefense&>(d).alert_count(suspect);
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

  /// Drives the backend to convict kA on its own evidence: clean forwards
  /// by kX and kOther (the z-score baseline; benign for LITEWORP), then
  /// forwards by kA of flows the guard never heard (the wormhole replay
  /// signature) until the backend detects it.
  void convict_a() {
    for (SeqNo seq = 100; seq < 104; ++seq) {
      defense_->observe(req(kOther, kInvalidNode, kOther, seq));
      defense_->observe(req(kX, kOther, kOther, seq));
    }
    for (SeqNo seq = 200; seq < 204; ++seq) {
      defense_->observe(req(kX, kInvalidNode, kX, seq));
      defense_->observe(req(kOther, kX, kX, seq));
    }
    for (SeqNo seq = 1; seq <= 10 && !locally_detected(*defense_, kA); ++seq) {
      defense_->observe(req(kA, kX, kFar, seq));
    }
    ASSERT_TRUE(locally_detected(*defense_, kA));
  }

  /// A properly signed alert from `guard` accusing kA, addressed to us.
  pkt::Packet signed_alert(NodeId guard, SeqNo seq, std::uint8_t ttl = 1) {
    pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
    alert.origin = guard;
    alert.claimed_tx = guard;
    alert.seq = seq;
    alert.accused = kA;
    alert.accusing_guard = guard;
    alert.ttl = ttl;
    alert.alert_auth.push_back(
        {kGuard, env_.keys().sign(guard, kGuard, alert.auth_payload())});
    return alert;
  }

  std::size_t alerts_sent() const {
    return env_.sent_of(pkt::PacketType::kAlert).size();
  }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  routing::OnDemandRouting routing_;
  std::unique_ptr<Defense> defense_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, AlertProtocolTest, ::testing::Values("liteworp", "zscore"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---- Sending (the accusing guard's perspective) ----

TEST_P(AlertProtocolTest, DetectionRevokesAndAlertsOnce) {
  convict_a();
  EXPECT_TRUE(table_.is_revoked(kA));
  EXPECT_EQ(alerts_sent(), 1u) << "repeats are scheduled, not immediate";
}

TEST_P(AlertProtocolTest, AlertCarriesPerRecipientTags) {
  convict_a();
  const auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), 1u);
  const pkt::Packet& alert = alerts[0];
  EXPECT_EQ(alert.accused, kA);
  EXPECT_EQ(alert.accusing_guard, kGuard);
  EXPECT_EQ(alert.origin, kGuard);
  EXPECT_EQ(alert.ttl, 2);
  // Recipients: R_A minus ourselves and the accused, in R_A's order.
  ASSERT_EQ(alert.alert_auth.size(), 3u);
  EXPECT_EQ(alert.alert_auth[0].recipient, kX);
  EXPECT_EQ(alert.alert_auth[1].recipient, kOther);
  EXPECT_EQ(alert.alert_auth[2].recipient, kFar);
  for (const auto& entry : alert.alert_auth) {
    EXPECT_TRUE(env_.keys().verify(kGuard, entry.recipient,
                                   alert.auth_payload(), entry.tag));
  }
  const CostSnapshot cost = defense_->cost();
  EXPECT_EQ(cost.control_messages, 1u);
  EXPECT_EQ(cost.control_bytes, alert.wire_size());
}

TEST_P(AlertProtocolTest, AlertRepeatsFireOnSchedule) {
  convict_a();
  ASSERT_EQ(alerts_sent(), 1u);
  env_.simulator().run_until(60.0);
  // alert_repeats = 3: the original plus two scheduled repeats, each a
  // fresh flow (new sequence number) so relays propagate it again.
  const auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_NE(alerts[0].seq, alerts[1].seq);
  EXPECT_NE(alerts[1].seq, alerts[2].seq);
  EXPECT_EQ(defense_->cost().control_messages, 3u);
}

TEST_P(AlertProtocolTest, ConvictedSenderReAlertedOncePerInterval) {
  convict_a();
  env_.simulator().run_until(20.0);
  ASSERT_EQ(alerts_sent(), 3u) << "detection alert plus two repeats";
  // kA keeps pushing control traffic after its conviction: some of its
  // neighbors have not isolated it yet. The guard re-accuses it at most
  // once per realert_interval (30 s, counted from the detection at t=0).
  defense_->observe(req(kA, kX, kFar, 50));
  EXPECT_EQ(alerts_sent(), 3u) << "20 s since the last alert";
  env_.simulator().run_until(30.0);
  defense_->observe(req(kA, kX, kFar, 51));
  EXPECT_EQ(alerts_sent(), 4u) << "a full interval has passed";
  defense_->observe(req(kA, kX, kFar, 52));
  EXPECT_EQ(alerts_sent(), 4u) << "same instant as the re-alert";
  env_.simulator().run_until(59.0);
  defense_->observe(req(kA, kX, kFar, 53));
  EXPECT_EQ(alerts_sent(), 4u) << "29 s since the re-alert";
  env_.simulator().run_until(60.0);
  defense_->observe(req(kA, kX, kFar, 54));
  EXPECT_EQ(alerts_sent(), 5u);
  EXPECT_EQ(env_.sent_of(pkt::PacketType::kAlert).back().accused, kA);
}

TEST_P(AlertProtocolTest, ResetClearsStateAndDisarmsScheduledRepeats) {
  convict_a();
  defense_->handle_alert(signed_alert(kX, 1));
  ASSERT_EQ(alert_count(*defense_, kA), 1);
  ASSERT_GT(evidence(*defense_, kA), 0.0);
  defense_->reset();  // crash: volatile detection state is gone
  EXPECT_FALSE(locally_detected(*defense_, kA));
  EXPECT_EQ(alert_count(*defense_, kA), 0);
  EXPECT_DOUBLE_EQ(evidence(*defense_, kA), 0.0);
  const std::size_t before = alerts_sent();
  env_.simulator().run_until(60.0);
  EXPECT_EQ(alerts_sent(), before)
      << "pre-crash repeats must be disarmed by the epoch guard";
  // The seen-alert memory is gone too: the same alert counts again.
  defense_->handle_alert(signed_alert(kX, 1));
  EXPECT_EQ(alert_count(*defense_, kA), 1);
}

TEST_P(AlertProtocolTest, FalseAlertSendsWithoutRevoking) {
  defense_->emit_false_alert(kA);
  const auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].accused, kA);
  EXPECT_FALSE(alerts[0].alert_auth.empty()) << "genuine tags";
  EXPECT_FALSE(table_.is_revoked(kA)) << "a framer keeps using its victim";
  EXPECT_FALSE(locally_detected(*defense_, kA));
  env_.simulator().run_until(60.0);
  EXPECT_EQ(alerts_sent(), 1u) << "no scheduled repeats";
}

// ---- Reception (the isolating node's perspective) ----

TEST_P(AlertProtocolTest, IsolatesAtGammaDistinctGuards) {
  // Guards must be neighbors of the accused per R_A = {kGuard,kX,kOther,kFar}.
  defense_->handle_alert(signed_alert(kX, 1));
  EXPECT_FALSE(table_.is_revoked(kA));
  defense_->handle_alert(signed_alert(kOther, 1));
  EXPECT_FALSE(table_.is_revoked(kA));
  defense_->handle_alert(signed_alert(kFar, 1));
  EXPECT_TRUE(table_.is_revoked(kA)) << "third distinct guard = gamma";
  EXPECT_EQ(alert_count(*defense_, kA), 3);
}

TEST_P(AlertProtocolTest, GammaIsTheBackendsDetectionConfidence) {
  DefenseConfig c = config();
  set_option(c, GetParam() + ".detection_confidence", "2");
  auto d = build(c);
  d->handle_alert(signed_alert(kX, 1));
  EXPECT_EQ(alert_count(*d, kA), 1);
  EXPECT_FALSE(table_.is_revoked(kA));
  // A repeat from the SAME guard is not a second accuser.
  d->handle_alert(signed_alert(kX, 2));
  EXPECT_EQ(alert_count(*d, kA), 1);
  EXPECT_FALSE(table_.is_revoked(kA));
  d->handle_alert(signed_alert(kOther, 3));
  EXPECT_EQ(alert_count(*d, kA), 2);
  EXPECT_TRUE(table_.is_revoked(kA)) << "gamma distinct accusers reached";
}

TEST_P(AlertProtocolTest, DuplicateGuardDoesNotDoubleCount) {
  defense_->handle_alert(signed_alert(kX, 1));
  defense_->handle_alert(signed_alert(kX, 2));
  defense_->handle_alert(signed_alert(kX, 3));
  EXPECT_FALSE(table_.is_revoked(kA))
      << "one compromised guard cannot reach gamma alone (framing attack)";
  EXPECT_EQ(alert_count(*defense_, kA), 1);
}

TEST_P(AlertProtocolTest, ForgedTagIgnored) {
  pkt::Packet alert = signed_alert(kX, 1);
  alert.alert_auth[0].tag = crypto::forge_tag(9);
  defense_->handle_alert(alert);
  EXPECT_EQ(alert_count(*defense_, kA), 0);
}

TEST_P(AlertProtocolTest, WrongPairwiseKeyIgnored) {
  // A genuine tag, but under another guard's key: verification must fail.
  pkt::Packet alert = signed_alert(kX, 1);
  alert.alert_auth[0].tag =
      env_.keys().sign(kOther, kGuard, alert.auth_payload());
  defense_->handle_alert(alert);
  EXPECT_EQ(alert_count(*defense_, kA), 0);
  EXPECT_FALSE(table_.is_revoked(kA));
}

TEST_P(AlertProtocolTest, AlertWithoutOurTagIgnored) {
  pkt::Packet alert = signed_alert(kX, 1);
  alert.alert_auth[0].recipient = kOther;
  defense_->handle_alert(alert);
  EXPECT_EQ(alert_count(*defense_, kA), 0);
}

TEST_P(AlertProtocolTest, AlertFromNonGuardIgnored) {
  // Node 8 is not in R_A, so it cannot be a guard of any of kA's links.
  defense_->handle_alert(signed_alert(8, 1));
  EXPECT_EQ(alert_count(*defense_, kA), 0);
}

TEST_P(AlertProtocolTest, MalformedRelayerClaimIgnored) {
  // The accusing guard must be the alert's origin.
  pkt::Packet alert = signed_alert(kX, 1);
  alert.origin = kOther;
  defense_->handle_alert(alert);
  EXPECT_EQ(alert_count(*defense_, kA), 0);
}

TEST_P(AlertProtocolTest, AlertAboutStrangerIgnored) {
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = kX;
  alert.claimed_tx = kX;
  alert.seq = 1;
  alert.accused = 77;  // not our neighbor
  alert.accusing_guard = kX;
  alert.alert_auth.push_back(
      {kGuard, env_.keys().sign(kX, kGuard, alert.auth_payload())});
  defense_->handle_alert(alert);
  EXPECT_EQ(alert_count(*defense_, 77), 0);
}

TEST_P(AlertProtocolTest, OwnAlertNotProcessed) {
  pkt::Packet alert = signed_alert(kX, 1);
  alert.origin = kGuard;
  alert.accusing_guard = kGuard;
  defense_->handle_alert(alert);
  EXPECT_EQ(alerts_sent(), 0u) << "never relays its own accusation";
  EXPECT_EQ(alert_count(*defense_, kA), 0);
}

TEST_P(AlertProtocolTest, AlertRelayedExactlyOnce) {
  pkt::Packet alert = signed_alert(kX, 1);
  defense_->handle_alert(alert);
  auto relayed = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(relayed.size(), 1u);
  EXPECT_EQ(relayed[0].ttl, 0);
  EXPECT_EQ(relayed[0].origin, kX) << "relay preserves the guard identity";
  EXPECT_EQ(relayed[0].announced_prev_hop, kX);
  EXPECT_EQ(relayed[0].claimed_tx, kGuard);
  // Hearing the relay again (or the original twice) must not re-relay.
  defense_->handle_alert(alert);
  EXPECT_EQ(alerts_sent(), 1u);
  EXPECT_EQ(defense_->cost().control_messages, 0u)
      << "relays are not the node's own alert transmissions";
}

TEST_P(AlertProtocolTest, AlertRelayedWithTtlDecrement) {
  defense_->handle_alert(signed_alert(kX, 1, /*ttl=*/2));
  const auto relayed = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(relayed.size(), 1u);
  EXPECT_EQ(relayed[0].ttl, 1u);
  EXPECT_EQ(relayed[0].accused, kA);
}

TEST_P(AlertProtocolTest, ZeroTtlAlertNotRelayed) {
  defense_->handle_alert(signed_alert(kX, 1, /*ttl=*/0));
  EXPECT_EQ(alerts_sent(), 0u);
  EXPECT_EQ(alert_count(*defense_, kA), 1) << "still counted";
}

TEST_P(AlertProtocolTest, UnverifiedAlertIsStillRelayed) {
  // Relaying precedes verification: a hop cannot check tags addressed to
  // the accused's other neighbors.
  pkt::Packet alert = signed_alert(kX, 1);
  alert.alert_auth[0].tag = crypto::forge_tag(9);
  defense_->handle_alert(alert);
  EXPECT_EQ(alerts_sent(), 1u);
}

TEST_P(AlertProtocolTest, StorageCountsAlertEntries) {
  const std::size_t empty = defense_->cost().storage_bytes;
  defense_->handle_alert(signed_alert(kX, 1));
  defense_->handle_alert(signed_alert(kOther, 1));
  EXPECT_EQ(defense_->cost().storage_bytes, empty + 2 * 4)
      << "4 bytes per (accused, guard) alert-buffer entry";
}

TEST_P(AlertProtocolTest, DisabledBackendIgnoresAlerts) {
  // A backend is off when "none" is selected instead: nothing relays a
  // received alert or sends a framing one.
  DefenseConfig c = config();
  c.name = "none";
  auto d = build(c);
  d->handle_alert(signed_alert(kX, 1, /*ttl=*/2));
  d->emit_false_alert(kA);
  EXPECT_EQ(alerts_sent(), 0u);
  EXPECT_FALSE(table_.is_revoked(kA));
}

}  // namespace
}  // namespace lw::defense
