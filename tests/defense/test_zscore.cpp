// Z-score neighbor-table detector: anomaly accounting, the three
// conviction gates (samples, absolute rate, leave-one-out outlier) and
// admission — driven by hand-crafted packet sequences through the same
// fake environment as the LITEWORP monitor tests. The alert protocol it
// shares with LITEWORP is pinned for both in test_alert_protocol.cpp.
#include <gtest/gtest.h>

#include "defense/zscore.h"
#include "tests/liteworp/fake_env.h"

namespace lw::defense {
namespace {

// Cast of characters (neighbors of the guard unless noted):
//   kGuard = 0 (us), kW = 1 (wormhole-endpoint suspect),
//   kH1 = 2, kH2 = 3 (honest forwarders), kFar = 9 (not our neighbor —
//   flows originating beyond earshot).
constexpr NodeId kGuard = 0;
constexpr NodeId kW = 1;
constexpr NodeId kH1 = 2;
constexpr NodeId kH2 = 3;
constexpr NodeId kFar = 9;

class ZScoreTest : public ::testing::Test {
 protected:
  ZScoreTest()
      : env_(kGuard),
        routing_(env_, table_, {}),
        defense_(config(), Wiring{env_, table_, routing_}) {
    table_.add_neighbor(kW);
    table_.add_neighbor(kH1);
    table_.add_neighbor(kH2);
    table_.set_neighbor_list(kW, {kGuard, kH1, kH2});
    table_.set_neighbor_list(kH1, {kGuard, kW, kH2});
    table_.set_neighbor_list(kH2, {kGuard, kW, kH1});
  }

  /// Unit-sized evidence: 4 judged forwards qualify a neighbor. The other
  /// gates keep their defaults (rate floor 0.3, z threshold 2.5, std floor
  /// 0.05, gamma 3).
  static DefenseConfig config() {
    DefenseConfig c;
    c.name = "zscore";
    c.zscore.min_samples = 4;
    return c;
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

  /// A forward with an alibi: the guard first hears `origin_nbr` originate
  /// the flow, then `fwd` forward it. Judged clean.
  void clean_forward(NodeId fwd, NodeId origin_nbr, SeqNo seq) {
    defense_.observe(req(origin_nbr, kInvalidNode, origin_nbr, seq));
    defense_.observe(req(fwd, origin_nbr, origin_nbr, seq));
  }

  /// A forward of a flow the guard never heard from anyone — the wormhole
  /// replay signature. Judged anomalous.
  void anomalous_forward(NodeId fwd, NodeId prev, SeqNo seq) {
    defense_.observe(req(fwd, prev, kFar, seq));
  }

  /// Qualifies the honest peers as the z-score baseline: 4 clean forwards
  /// each, anomaly rate 0.
  void qualify_honest_baseline() {
    for (SeqNo seq = 100; seq < 104; ++seq) clean_forward(kH1, kH2, seq);
    for (SeqNo seq = 200; seq < 204; ++seq) clean_forward(kH2, kH1, seq);
  }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  routing::OnDemandRouting routing_;
  ZScoreDefense defense_;
};

TEST_F(ZScoreTest, CleanForwardIsNotAnomalous) {
  clean_forward(kW, kH1, 1);
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 0.0);
  EXPECT_FALSE(defense_.locally_detected(kW));
}

TEST_F(ZScoreTest, UnheardFlowForwardIsAnomalousOncePerFlow) {
  anomalous_forward(kW, kH1, 1);
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 1.0);
  // Link-layer retransmissions of the same (flow, forwarder) pair must not
  // multiply the evidence: one verdict per flow.
  anomalous_forward(kW, kH1, 1);
  anomalous_forward(kW, kH1, 1);
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 1.0) << "observed must stay 1";
}

TEST_F(ZScoreTest, JudgeBeforeRecordDeniesSelfAlibi) {
  // kW's forward is judged BEFORE its transmission is recorded, so the
  // replay cannot alibi itself — but it DOES alibi later forwarders of the
  // now-heard flow (kH1 relays what kW injected; kH1 is innocent).
  anomalous_forward(kW, kH1, 7);
  defense_.observe(req(kH1, kW, kFar, 7));
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 1.0);
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kH1), 0.0)
      << "relaying a heard flow is not an anomaly";
}

TEST_F(ZScoreTest, NoConvictionWithoutPeerBaseline) {
  // Plenty of samples and a 100% anomaly rate, but no qualified peers: a
  // z-score against an empty baseline is numerology, so no conviction.
  for (SeqNo seq = 1; seq <= 6; ++seq) anomalous_forward(kW, kH1, seq);
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 1.0);
  EXPECT_DOUBLE_EQ(defense_.zscore_of(kW), 0.0) << "baseline too thin";
  EXPECT_FALSE(defense_.locally_detected(kW));
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kAlert).empty());
}

TEST_F(ZScoreTest, MinSamplesGateThenDetectionWithAlert) {
  qualify_honest_baseline();
  for (SeqNo seq = 1; seq <= 3; ++seq) anomalous_forward(kW, kH1, seq);
  EXPECT_FALSE(defense_.locally_detected(kW)) << "3 samples < min_samples";
  EXPECT_FALSE(table_.is_revoked(kW));
  anomalous_forward(kW, kH1, 4);
  EXPECT_TRUE(defense_.locally_detected(kW));
  EXPECT_TRUE(table_.is_revoked(kW));
  const auto alerts = env_.sent_of(pkt::PacketType::kAlert);
  ASSERT_EQ(alerts.size(), 1u) << "repeats are scheduled, not immediate";
  EXPECT_EQ(alerts[0].accused, kW);
  EXPECT_EQ(alerts[0].accusing_guard, kGuard);
  EXPECT_FALSE(alerts[0].alert_auth.empty()) << "alerts are authenticated";
}

TEST_F(ZScoreTest, AbsoluteRateFloorOverridesOutlierScore) {
  // 7 clean + 2 anomalous forwards: rate 2/9 ~= 0.22 is an extreme outlier
  // against the all-clean baseline (z = 0.22 / 0.05 > 4), but stays below
  // min_anomaly_rate = 0.3 — the floor must hold the conviction.
  qualify_honest_baseline();
  for (SeqNo seq = 1; seq <= 7; ++seq) clean_forward(kW, kH1, seq + 300);
  anomalous_forward(kW, kH1, 1);
  anomalous_forward(kW, kH1, 2);
  EXPECT_GE(defense_.zscore_of(kW), defense_.params().z_threshold)
      << "the z-score alone would have convicted";
  EXPECT_LT(defense_.anomaly_rate(kW), defense_.params().min_anomaly_rate);
  EXPECT_FALSE(defense_.locally_detected(kW));
}

TEST_F(ZScoreTest, UniformlyAnomalousNeighborhoodConvictsNobody) {
  // Everyone anomalizes equally (e.g. the guard itself is deaf): nobody is
  // an outlier among its peers, so nobody is convicted.
  for (SeqNo seq = 1; seq <= 5; ++seq) {
    anomalous_forward(kW, kH1, seq);
    anomalous_forward(kH1, kH2, seq + 400);
    anomalous_forward(kH2, kW, seq + 500);
  }
  EXPECT_DOUBLE_EQ(defense_.anomaly_rate(kW), 1.0);
  EXPECT_LT(defense_.zscore_of(kW), defense_.params().z_threshold);
  EXPECT_FALSE(defense_.locally_detected(kW));
  EXPECT_FALSE(defense_.locally_detected(kH1));
  EXPECT_FALSE(defense_.locally_detected(kH2));
  EXPECT_TRUE(env_.sent_of(pkt::PacketType::kAlert).empty());
}

TEST_F(ZScoreTest, AdmitEnforcesRevocationOnly) {
  // Statistical evidence never drops individual frames pre-conviction.
  EXPECT_TRUE(defense_.admit(req(kW, kH1, kFar, 1)));
  qualify_honest_baseline();
  for (SeqNo seq = 1; seq <= 4; ++seq) anomalous_forward(kW, kH1, seq);
  ASSERT_TRUE(table_.is_revoked(kW));
  EXPECT_FALSE(defense_.admit(req(kW, kH1, kFar, 10)))
      << "no traffic from a revoked sender";
  EXPECT_FALSE(defense_.admit(req(kH1, kW, kFar, 11)))
      << "no traffic via a revoked previous hop";
  EXPECT_TRUE(defense_.admit(req(kH1, kH2, kFar, 12)));
  const nbr::AdmissionStats& stats = defense_.admission_stats();
  EXPECT_EQ(stats.revoked_sender, 1u);
  EXPECT_EQ(stats.revoked_prev_hop, 1u);
  EXPECT_EQ(stats.accepted, 2u);
}

TEST_F(ZScoreTest, CostSnapshotCountsDeterministicWork) {
  qualify_honest_baseline();
  for (SeqNo seq = 1; seq <= 4; ++seq) anomalous_forward(kW, kH1, seq);
  EXPECT_TRUE(defense_.admit(req(kH1, kH2, kFar, 50)));
  EXPECT_FALSE(defense_.admit(req(kW, kH1, kFar, 51)));
  const CostSnapshot cost = defense_.cost();
  EXPECT_GT(cost.frames_observed, 0u);
  EXPECT_EQ(cost.admission_checks, 2u);
  EXPECT_EQ(cost.admission_rejects, 1u);
  EXPECT_EQ(cost.control_messages, 1u) << "one alert transmitted so far";
  EXPECT_GT(cost.control_bytes, 0u);
  EXPECT_GT(cost.storage_bytes, 0u) << "stats and watch records are stored";
}

}  // namespace
}  // namespace lw::defense
