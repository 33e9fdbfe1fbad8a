// Receiver-side admission checks — every verdict branch.
#include <gtest/gtest.h>

#include "neighbor/admission.h"

namespace lw::nbr {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() {
    // Us: neighbors 1 and 2. R_1 = {5, us}; R_2 = {6}.
    table_.add_neighbor(1);
    table_.add_neighbor(2);
    table_.set_neighbor_list(1, {5, 0});
    table_.set_neighbor_list(2, {6});
  }

  pkt::Packet frame(NodeId claimed, NodeId prev, NodeId origin) {
    pkt::Packet p;
    p.type = pkt::PacketType::kData;
    p.claimed_tx = claimed;
    p.announced_prev_hop = prev;
    p.origin = origin;
    return p;
  }

  NeighborTable table_;
};

TEST_F(AdmissionTest, AcceptsValidForward) {
  EXPECT_EQ(check_frame(table_, frame(1, 5, 9)), Admission::kAccept);
}

TEST_F(AdmissionTest, AcceptsOrigination) {
  // A packet transmitted by its own origin carries no previous hop.
  EXPECT_EQ(check_frame(table_, frame(1, kInvalidNode, 1)),
            Admission::kAccept);
}

TEST_F(AdmissionTest, RejectsForwardWithoutPrevHop) {
  // A forwarder (claimed != origin) that omits the announcement is cheating.
  EXPECT_EQ(check_frame(table_, frame(1, kInvalidNode, 9)),
            Admission::kBogusPrevHop);
}

TEST_F(AdmissionTest, RejectsUnknownSender) {
  // The relay attack (3.4) and high-power attack (3.3): the claimed sender
  // is not in our neighbor list.
  EXPECT_EQ(check_frame(table_, frame(42, 5, 9)),
            Admission::kUnknownSender);
}

TEST_F(AdmissionTest, RejectsRevokedSender) {
  table_.revoke(1);
  EXPECT_EQ(check_frame(table_, frame(1, 5, 9)), Admission::kRevokedSender);
}

TEST_F(AdmissionTest, RejectsPrevHopOutsideSendersList) {
  // Naive encapsulation (Section 4.2.3 first choice): the colluder M1 is
  // announced but is not in R_M2.
  EXPECT_EQ(check_frame(table_, frame(1, 6, 9)), Admission::kBogusPrevHop);
}

TEST_F(AdmissionTest, RejectsRevokedPrevHop) {
  table_.add_neighbor(5);
  table_.revoke(5);
  EXPECT_EQ(check_frame(table_, frame(1, 5, 9)),
            Admission::kRevokedPrevHop);
}

TEST_F(AdmissionTest, FailsClosedWithoutSecondHopList) {
  table_.add_neighbor(3);  // neighbor without a stored R_3
  EXPECT_EQ(check_frame(table_, frame(3, 5, 9)), Admission::kBogusPrevHop);
}

TEST_F(AdmissionTest, StatsRecordEveryVerdict) {
  AdmissionStats stats;
  stats.record(Admission::kAccept);
  stats.record(Admission::kUnknownSender);
  stats.record(Admission::kRevokedSender);
  stats.record(Admission::kBogusPrevHop);
  stats.record(Admission::kBogusPrevHop);
  stats.record(Admission::kRevokedPrevHop);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.unknown_sender, 1u);
  EXPECT_EQ(stats.revoked_sender, 1u);
  EXPECT_EQ(stats.bogus_prev_hop, 2u);
  EXPECT_EQ(stats.revoked_prev_hop, 1u);
  EXPECT_EQ(stats.total_rejected(), 5u);
}

}  // namespace
}  // namespace lw::nbr
