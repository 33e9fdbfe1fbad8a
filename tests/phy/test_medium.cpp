// Broadcast medium: range, propagation, collisions, half-duplex, knobs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "phy/medium.h"
#include "topology/field.h"

namespace lw::phy {
namespace {

class MediumTest : public ::testing::Test {
 protected:
  // Chain: 0 -- 1 -- 2 -- 3 spaced 20 m, range 25 m (only adjacent hear
  // each other); node 4 far away.
  MediumTest()
      : graph_({{0, 0}, {20, 0}, {40, 0}, {60, 0}, {500, 0}}, 25.0) {}

  void build(PhyParams params) {
    medium_ = std::make_unique<Medium>(sim_, graph_, params, Rng(1));
    for (NodeId id = 0; id < graph_.size(); ++id) {
      radios_.push_back(std::make_unique<Radio>(id));
      received_.emplace_back();
      NodeId captured = id;
      radios_.back()->set_frame_sink([this, captured](const pkt::Packet& p) {
        received_[captured].push_back(p);
      });
      medium_->attach(radios_.back().get());
    }
  }

  pkt::Packet make_packet(pkt::PacketType type = pkt::PacketType::kData) {
    pkt::Packet p = factory_.make(type);
    p.payload_bytes = 32;
    return p;
  }

  sim::Simulator sim_;
  topo::DiscGraph graph_;
  pkt::PacketFactory factory_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<pkt::Packet>> received_;
};

TEST_F(MediumTest, DeliversToNodesInRangeOnly) {
  build(PhyParams{});
  medium_->transmit(1, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[3].size(), 0u);  // 40 m away
  EXPECT_EQ(received_[4].size(), 0u);
  EXPECT_EQ(received_[1].size(), 0u) << "no self-delivery";
}

TEST_F(MediumTest, StampsPhysicalTransmitter) {
  build(PhyParams{});
  pkt::Packet p = make_packet();
  p.claimed_tx = 99;  // spoofed claim must survive, tx_node must not
  medium_->transmit(1, p);
  sim_.run_all();
  ASSERT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[0][0].tx_node, 1u);
  EXPECT_EQ(received_[0][0].claimed_tx, 99u);
}

TEST_F(MediumTest, TransmissionTakesSerializationTime) {
  build(PhyParams{});
  pkt::Packet p = make_packet();
  const double expected = p.wire_size() * 8.0 / 40000.0;
  EXPECT_NEAR(medium_->transmit_duration(p), expected, 1e-12);
  medium_->transmit(1, p);
  sim_.run_until(expected / 2);
  EXPECT_EQ(received_[0].size(), 0u) << "frame still in the air";
  sim_.run_all();
  EXPECT_EQ(received_[0].size(), 1u);
}

TEST_F(MediumTest, OverlappingTransmissionsCollideAtCommonReceiver) {
  build(PhyParams{});
  // 0 and 2 are hidden from each other; both reach 1.
  medium_->transmit(0, make_packet());
  medium_->transmit(2, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 0u) << "both frames must be corrupted";
  EXPECT_EQ(medium_->stats().frames_collided, 2u);
  // Node 3 hears only node 2: clean delivery there.
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST_F(MediumTest, NonOverlappingTransmissionsBothDeliver) {
  build(PhyParams{});
  pkt::Packet first = make_packet();
  const double gap = medium_->transmit_duration(first) + 0.001;
  medium_->transmit(0, first);
  sim_.schedule(gap, [this] { medium_->transmit(2, make_packet()); });
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 2u);
}

TEST_F(MediumTest, CollisionsCanBeDisabled) {
  PhyParams params;
  params.collisions_enabled = false;
  build(params);
  medium_->transmit(0, make_packet());
  medium_->transmit(2, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 2u);
}

TEST_F(MediumTest, CollisionFreeWindowProtectsEarlyTraffic) {
  PhyParams params;
  params.collision_free_until = 10.0;
  build(params);
  medium_->transmit(0, make_packet());
  medium_->transmit(2, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 2u) << "inside the secure window";

  sim_.schedule(20.0 - sim_.now(), [] {});
  sim_.run_all();  // advance past the window
  medium_->transmit(0, make_packet());
  medium_->transmit(2, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 2u) << "the colliding pair was lost";
  EXPECT_EQ(medium_->stats().frames_collided, 2u);
}

TEST_F(MediumTest, HalfDuplexTransmitterCannotReceive) {
  build(PhyParams{});
  medium_->transmit(0, make_packet());
  // Node 1 starts transmitting shortly after 0's frame starts arriving.
  sim_.schedule(0.001, [this] { medium_->transmit(1, make_packet()); });
  sim_.run_all();
  EXPECT_EQ(received_[1].size(), 0u)
      << "node 1 was transmitting while 0's frame arrived";
}

TEST_F(MediumTest, RandomLossDropsIndependently) {
  PhyParams params;
  params.extra_loss_prob = 0.5;
  build(params);
  for (int i = 0; i < 200; ++i) {
    sim_.schedule(i * 0.1, [this] { medium_->transmit(1, make_packet()); });
  }
  sim_.run_all();
  // Two receivers, 200 frames each, ~50% loss.
  const auto& stats = medium_->stats();
  EXPECT_GT(stats.frames_random_lost, 120u);
  EXPECT_LT(stats.frames_random_lost, 280u);
  EXPECT_EQ(stats.frames_random_lost + stats.frames_delivered, 400u);
}

TEST_F(MediumTest, HighPowerTransmissionReachesFar) {
  build(PhyParams{});
  medium_->transmit(0, make_packet(), /*range_multiplier=*/3.0);
  sim_.run_all();
  EXPECT_EQ(received_[3].size(), 1u) << "60 m at 3x range multiplier";
  EXPECT_EQ(received_[4].size(), 0u) << "500 m still out of reach";
}

TEST_F(MediumTest, HighGainReceiverHearsFar) {
  build(PhyParams{});
  medium_->set_rx_range_multiplier(3, 3.0);
  medium_->transmit(0, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[3].size(), 1u)
      << "node 3 listens at 3x range, hears normal-power node 0";
  EXPECT_EQ(received_[4].size(), 0u);
}

TEST_F(MediumTest, ShrunkenReceiverMissesLowPowerFrame) {
  // Both multipliers at most 1: the sender's disc neighbors are the only
  // candidates, and each still needs dist <= range * max(tx, rx).
  build(PhyParams{});
  medium_->set_rx_range_multiplier(2, 0.5);
  medium_->transmit(1, make_packet(), /*range_multiplier=*/0.5);
  sim_.run_all();
  EXPECT_EQ(received_[2].size(), 0u)
      << "20 m = 0.8x range, but tx and rx both reach only 0.5x";
  EXPECT_EQ(received_[0].size(), 1u) << "node 0 listens at the full range";
}

TEST_F(MediumTest, RestoredReceiverHearsExactlyDiscNeighbors) {
  build(PhyParams{});
  medium_->set_rx_range_multiplier(3, 2.0);
  medium_->transmit(1, make_packet());
  sim_.run_all();
  EXPECT_EQ(received_[3].size(), 1u) << "40 m, node 3 listens at 2x range";

  medium_->set_rx_range_multiplier(3, 1.0);
  for (auto& frames : received_) frames.clear();
  medium_->transmit(1, make_packet());
  sim_.run_all();
  std::vector<NodeId> heard;
  for (NodeId id = 0; id < graph_.size(); ++id) {
    if (!received_[id].empty()) heard.push_back(id);
  }
  const auto neighbors = graph_.neighbors(1);
  EXPECT_EQ(heard, std::vector<NodeId>(neighbors.begin(), neighbors.end()));
}

TEST_F(MediumTest, CarrierSenseSeesOngoingTraffic) {
  build(PhyParams{});
  EXPECT_FALSE(medium_->channel_busy(0));
  medium_->transmit(1, make_packet());
  sim_.schedule(0.001, [this] {
    EXPECT_TRUE(medium_->channel_busy(0)) << "reception in progress";
    EXPECT_TRUE(medium_->channel_busy(1)) << "transmitting";
    EXPECT_FALSE(medium_->channel_busy(3)) << "out of range: idle";
  });
  sim_.run_all();
  EXPECT_FALSE(medium_->channel_busy(0));
}

TEST_F(MediumTest, PerTypeAccounting) {
  build(PhyParams{});
  medium_->transmit(0, make_packet(pkt::PacketType::kRouteRequest));
  sim_.run_all();
  const auto& stats = medium_->stats();
  EXPECT_EQ(stats.tx_by_type[static_cast<std::size_t>(
                pkt::PacketType::kRouteRequest)],
            1u);
  EXPECT_GT(stats.airtime_by_type[static_cast<std::size_t>(
                pkt::PacketType::kRouteRequest)],
            0.0);
}

class RecordingTrace final : public obs::EventSink {
 public:
  int tx = 0, rx = 0, coll = 0, loss = 0;
  void on_event(const obs::Event& event) override {
    switch (event.kind) {
      case obs::EventKind::kPhyTx: ++tx; break;
      case obs::EventKind::kPhyRx: ++rx; break;
      case obs::EventKind::kPhyCollision: ++coll; break;
      case obs::EventKind::kPhyLoss: ++loss; break;
      default: break;
    }
  }
};

TEST_F(MediumTest, RecorderObservesAllOutcomes) {
  build(PhyParams{});
  obs::Recorder recorder;
  RecordingTrace trace;
  recorder.add_sink(&trace, obs::layer_bit(obs::Layer::kPhy));
  medium_->set_recorder(&recorder);
  medium_->transmit(0, make_packet());  // delivered at 1
  sim_.run_all();
  medium_->transmit(0, make_packet());  // these two collide at 1
  medium_->transmit(2, make_packet());
  sim_.run_all();
  EXPECT_EQ(trace.tx, 3);
  EXPECT_GE(trace.rx, 2);   // first frame at 1, second burst at 3
  EXPECT_EQ(trace.coll, 2);
  EXPECT_EQ(trace.loss, 0);
}

}  // namespace
}  // namespace lw::phy
