// Neighbor table: first/second hop knowledge, revocation, storage model.
#include <gtest/gtest.h>

#include "neighbor/neighbor_table.h"

namespace lw::nbr {
namespace {

TEST(NeighborTable, AddAndQuery) {
  NeighborTable table;
  table.add_neighbor(3);
  EXPECT_TRUE(table.knows_neighbor(3));
  EXPECT_TRUE(table.is_active_neighbor(3));
  EXPECT_FALSE(table.knows_neighbor(4));
  EXPECT_EQ(table.neighbor_count(), 1u);
}

TEST(NeighborTable, DuplicateAddIdempotent) {
  NeighborTable table;
  table.add_neighbor(3);
  table.add_neighbor(3);
  EXPECT_EQ(table.neighbor_count(), 1u);
}

TEST(NeighborTable, NeighborOrderPreserved) {
  NeighborTable table;
  table.add_neighbor(5);
  table.add_neighbor(2);
  table.add_neighbor(9);
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{5, 2, 9}));
}

TEST(NeighborTable, SecondHopListsQueryable) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {7, 8});
  EXPECT_TRUE(table.has_list_of(3));
  EXPECT_TRUE(table.in_list_of(3, 7));
  EXPECT_FALSE(table.in_list_of(3, 9));
  ASSERT_NE(table.list_of(3), nullptr);
  EXPECT_EQ(*table.list_of(3), (std::vector<NodeId>{7, 8}));
}

TEST(NeighborTable, ListFromUnknownNodeIgnored) {
  NeighborTable table;
  table.set_neighbor_list(3, {7, 8});
  EXPECT_FALSE(table.has_list_of(3));
  EXPECT_FALSE(table.in_list_of(3, 7));
}

TEST(NeighborTable, ListKeepsOrderAndNeverHoldsInvalidNode) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {8, kInvalidNode, 7});
  EXPECT_EQ(*table.list_of(3), (std::vector<NodeId>{8, kInvalidNode, 7}));
  EXPECT_TRUE(table.in_list_of(3, 7));
  EXPECT_FALSE(table.in_list_of(3, kInvalidNode));
  EXPECT_FALSE(table.in_list_of(kInvalidNode, 7));
}

TEST(NeighborTable, RevocationSemantics) {
  NeighborTable table;
  table.add_neighbor(3);
  table.revoke(3);
  EXPECT_TRUE(table.knows_neighbor(3)) << "revoked stays in the table";
  EXPECT_FALSE(table.is_active_neighbor(3));
  EXPECT_TRUE(table.is_revoked(3));
  EXPECT_EQ(table.revoked_count(), 1u);
}

TEST(NeighborTable, RevokeUnknownIsNoop) {
  NeighborTable table;
  table.revoke(99);
  EXPECT_FALSE(table.is_revoked(99));
  EXPECT_EQ(table.revoked_count(), 0u);
}

TEST(NeighborTable, ActiveNeighborsExcludeRevoked) {
  NeighborTable table;
  table.add_neighbor(1);
  table.add_neighbor(2);
  table.add_neighbor(3);
  table.revoke(2);
  EXPECT_EQ(table.active_neighbors(), (std::vector<NodeId>{1, 3}));
}

TEST(NeighborTable, StorageMatchesPaperCostModel) {
  // 5 bytes per first-hop entry (id + MalC) plus 4 per second-hop entry.
  NeighborTable table;
  for (NodeId n = 0; n < 10; ++n) table.add_neighbor(n);
  for (NodeId n = 0; n < 10; ++n) {
    table.set_neighbor_list(n, std::vector<NodeId>(10, 99));
  }
  EXPECT_EQ(table.storage_bytes(), 5u * 10 + 4u * 100);
  // The paper's headline: under half a kilobyte at N_B = 10.
  EXPECT_LT(table.storage_bytes(), 512u);
}

TEST(NeighborTable, LargeIdsNextToSmallOnes) {
  // Ids are only compared, never used as indices: an id far beyond the
  // table size goes through add, revoke, expire and re-add like any other.
  constexpr NodeId kFar = 1'000'000;
  NeighborTable table;
  table.add_neighbor(7);
  table.add_neighbor(kFar);
  EXPECT_TRUE(table.knows_neighbor(kFar));
  EXPECT_FALSE(table.knows_neighbor(kFar - 1));
  EXPECT_FALSE(table.knows_neighbor(kFar + 1));
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{7, kFar}));

  table.revoke(kFar);
  EXPECT_TRUE(table.is_revoked(kFar));
  EXPECT_FALSE(table.is_revoked(7));
  EXPECT_TRUE(table.is_active_neighbor(7));
  EXPECT_EQ(table.active_neighbors(), (std::vector<NodeId>{7}));

  table.expire_neighbor(kFar);
  EXPECT_FALSE(table.knows_neighbor(kFar));
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{7}));
  table.add_neighbor(kFar);
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{7, kFar}));
  EXPECT_FALSE(table.is_active_neighbor(kFar)) << "still revoked on re-add";
  EXPECT_EQ(table.storage_bytes(), 5u * 2);
}

TEST(NeighborTable, RevocationOutlivesExpiryUntilClear) {
  NeighborTable table;
  table.add_neighbor(3);
  table.add_neighbor(4);
  table.set_neighbor_list(3, {8});
  table.revoke(3);
  table.revoke(3);
  EXPECT_EQ(table.revoked_count(), 1u) << "revoke is idempotent";

  table.expire_neighbor(3);
  EXPECT_FALSE(table.knows_neighbor(3));
  EXPECT_FALSE(table.has_list_of(3)) << "expiry drops the second-hop list";
  EXPECT_TRUE(table.is_revoked(3)) << "revocation outlives expiry";
  EXPECT_EQ(table.revoked_count(), 1u);
  table.revoke(3);
  EXPECT_EQ(table.revoked_count(), 1u);

  table.add_neighbor(3);
  EXPECT_TRUE(table.knows_neighbor(3));
  EXPECT_FALSE(table.is_active_neighbor(3));
  table.revoke(4);
  EXPECT_EQ(table.revoked_count(), 2u);

  table.clear();
  EXPECT_FALSE(table.is_revoked(3)) << "only clear() forgets a revocation";
  EXPECT_FALSE(table.is_revoked(4));
  EXPECT_EQ(table.revoked_count(), 0u);
  EXPECT_EQ(table.neighbor_count(), 0u);
  table.add_neighbor(3);
  EXPECT_TRUE(table.is_active_neighbor(3));
}

TEST(NeighborTable, InvalidNodeIsNeverAdded) {
  NeighborTable table;
  table.add_neighbor(5);
  table.add_neighbor(kInvalidNode);
  table.add_neighbor(kInvalidNode);
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{5}));
  EXPECT_FALSE(table.knows_neighbor(kInvalidNode));
  table.revoke(kInvalidNode);
  EXPECT_FALSE(table.is_revoked(kInvalidNode));
  EXPECT_EQ(table.revoked_count(), 0u);
}

TEST(NeighborTable, ExpiringAMiddleNeighborKeepsTheOthersLists) {
  NeighborTable table;
  table.add_neighbor(3);
  table.add_neighbor(4);
  table.add_neighbor(5);
  table.add_neighbor(6);
  table.set_neighbor_list(3, {7, 8});
  table.set_neighbor_list(4, {9, 10, 11});
  table.set_neighbor_list(6, {12});
  EXPECT_EQ(table.storage_bytes(), 5u * 4 + 4u * (2 + 3 + 1));

  table.expire_neighbor(4);
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{3, 5, 6}));
  EXPECT_FALSE(table.has_list_of(4));
  ASSERT_NE(table.list_of(3), nullptr);
  EXPECT_EQ(*table.list_of(3), (std::vector<NodeId>{7, 8}));
  EXPECT_FALSE(table.has_list_of(5)) << "5 never sent its list";
  ASSERT_NE(table.list_of(6), nullptr);
  EXPECT_EQ(*table.list_of(6), (std::vector<NodeId>{12}));
  EXPECT_EQ(table.storage_bytes(), 5u * 3 + 4u * (2 + 1))
      << "only 4's entry and list are gone";

  // A re-admitted 4 starts without a list, behind the others.
  table.add_neighbor(4);
  EXPECT_EQ(table.neighbors(), (std::vector<NodeId>{3, 5, 6, 4}));
  EXPECT_FALSE(table.has_list_of(4));
  table.set_neighbor_list(5, {});
  EXPECT_TRUE(table.has_list_of(5)) << "an empty list is still a list";
  EXPECT_EQ(*table.list_of(6), (std::vector<NodeId>{12}));
}

TEST(NeighborTable, ListReplacementOverwrites) {
  NeighborTable table;
  table.add_neighbor(3);
  table.set_neighbor_list(3, {7});
  table.set_neighbor_list(3, {8, 9});
  EXPECT_FALSE(table.in_list_of(3, 7));
  EXPECT_TRUE(table.in_list_of(3, 8));
}

}  // namespace
}  // namespace lw::nbr
