// Watch buffer: transmit records, flow records, drop-watch lifecycle.
#include <gtest/gtest.h>

#include "liteworp/watch_buffer.h"

namespace lw::lite {
namespace {

FlowKey flow(NodeId origin, SeqNo seq) {
  return FlowKey{.origin = origin, .type_tag = 4, .seq = seq};
}

TEST(WatchBuffer, TransmitRecordLifecycle) {
  WatchBuffer buffer;
  buffer.record_transmit(flow(1, 1), 5, /*now=*/10.0, /*ttl=*/2.0);
  EXPECT_TRUE(buffer.has_transmit(flow(1, 1), 5, 11.0));
  EXPECT_FALSE(buffer.has_transmit(flow(1, 1), 5, 12.5)) << "expired";
  EXPECT_FALSE(buffer.has_transmit(flow(1, 1), 6, 11.0)) << "wrong node";
  EXPECT_FALSE(buffer.has_transmit(flow(1, 2), 5, 11.0)) << "wrong flow";
}

TEST(WatchBuffer, TransmitRecordsMatchedNonDestructively) {
  WatchBuffer buffer;
  buffer.record_transmit(flow(1, 1), 5, 10.0, 2.0);
  EXPECT_TRUE(buffer.has_transmit(flow(1, 1), 5, 10.5));
  EXPECT_TRUE(buffer.has_transmit(flow(1, 1), 5, 10.6))
      << "several forwarders of the same flood must all match";
}

TEST(WatchBuffer, ReRecordExtendsExpiry) {
  WatchBuffer buffer;
  buffer.record_transmit(flow(1, 1), 5, 10.0, 2.0);
  buffer.record_transmit(flow(1, 1), 5, 11.5, 2.0);  // retransmission
  EXPECT_TRUE(buffer.has_transmit(flow(1, 1), 5, 13.0));
}

TEST(WatchBuffer, FlowWideTransmitQuery) {
  WatchBuffer buffer;
  buffer.record_transmit(flow(1, 1), 5, 10.0, 2.0);
  EXPECT_TRUE(buffer.has_any_transmit(flow(1, 1), 11.0));
  EXPECT_FALSE(buffer.has_any_transmit(flow(1, 2), 11.0));
  EXPECT_FALSE(buffer.has_any_transmit(flow(1, 1), 13.0)) << "expired";
}

TEST(WatchBuffer, DropWatchAddAndClear) {
  WatchBuffer buffer;
  EXPECT_TRUE(buffer.add_drop_watch(flow(1, 1), 5, 6, {}));
  EXPECT_EQ(buffer.drop_watches(), 1u);
  EXPECT_TRUE(buffer.clear_drop_watch(flow(1, 1), 5, 6));
  EXPECT_EQ(buffer.drop_watches(), 0u);
  EXPECT_FALSE(buffer.clear_drop_watch(flow(1, 1), 5, 6)) << "already gone";
}

TEST(WatchBuffer, DuplicateDropWatchRejected) {
  WatchBuffer buffer;
  EXPECT_TRUE(buffer.add_drop_watch(flow(1, 1), 5, 6, {}));
  EXPECT_FALSE(buffer.add_drop_watch(flow(1, 1), 5, 6, {}))
      << "link-layer retransmissions must not re-arm the timer";
  EXPECT_EQ(buffer.drop_watches(), 1u);
}

TEST(WatchBuffer, TakeExpiredOnlyOnce) {
  WatchBuffer buffer;
  buffer.add_drop_watch(flow(1, 1), 5, 6, {});
  EXPECT_TRUE(buffer.take_expired_drop_watch(flow(1, 1), 5, 6));
  EXPECT_FALSE(buffer.take_expired_drop_watch(flow(1, 1), 5, 6));
}

TEST(WatchBuffer, ClearedWatchNotTakenAsExpired) {
  WatchBuffer buffer;
  buffer.add_drop_watch(flow(1, 1), 5, 6, {});
  buffer.clear_drop_watch(flow(1, 1), 5, 6);
  EXPECT_FALSE(buffer.take_expired_drop_watch(flow(1, 1), 5, 6));
}

TEST(WatchBuffer, DistinctLinksIndependent) {
  WatchBuffer buffer;
  buffer.add_drop_watch(flow(1, 1), 5, 6, {});
  buffer.add_drop_watch(flow(1, 1), 6, 7, {});
  EXPECT_TRUE(buffer.clear_drop_watch(flow(1, 1), 5, 6));
  EXPECT_TRUE(buffer.take_expired_drop_watch(flow(1, 1), 6, 7));
}

TEST(WatchBuffer, StorageBytesPerPaperModel) {
  WatchBuffer buffer;
  buffer.record_transmit(flow(1, 1), 5, 10.0, 2.0);
  buffer.add_drop_watch(flow(1, 2), 5, 6, {});
  EXPECT_EQ(buffer.storage_bytes(), 2u * 20u) << "20 bytes per entry";
}

TEST(WatchBuffer, PeakTracksHighWater) {
  WatchBuffer buffer;
  for (SeqNo s = 0; s < 10; ++s) {
    buffer.add_drop_watch(flow(1, s), 5, 6, {});
  }
  for (SeqNo s = 0; s < 10; ++s) {
    buffer.clear_drop_watch(flow(1, s), 5, 6);
  }
  EXPECT_EQ(buffer.drop_watches(), 0u);
  EXPECT_EQ(buffer.peak_entries(), 10u);
}

TEST(WatchBuffer, ExpiredTransmitsPurgedAmortized) {
  WatchBuffer buffer;
  for (SeqNo s = 0; s < 1000; ++s) {
    buffer.record_transmit(flow(1, s), 5, static_cast<double>(s) * 0.01, 1.0);
  }
  // After enough insertions the amortized purge must have dropped old
  // entries (all but the last ~100 are expired by t=10).
  EXPECT_LT(buffer.transmit_records(), 1000u);
}

TEST(JudgedForwards, OneVerdictPerPairUntilTheBoundForgetsAll) {
  JudgedForwards judged;
  // The table grows many times on the way; membership must not notice.
  for (SeqNo s = 0; s < 8192; ++s) {
    ASSERT_TRUE(judged.first_verdict({flow(1, s), 5}));
  }
  EXPECT_FALSE(judged.first_verdict({flow(1, 0), 5}));
  EXPECT_FALSE(judged.first_verdict({flow(1, 8191), 5}));
  EXPECT_TRUE(judged.first_verdict({flow(1, 0), 6})) << "other forwarder";
  // 8193 pairs now: the next offer forgets them all first.
  EXPECT_TRUE(judged.first_verdict({flow(1, 1), 5}));
  EXPECT_FALSE(judged.first_verdict({flow(1, 1), 5}));
  judged.clear();
  EXPECT_TRUE(judged.first_verdict({flow(1, 1), 5}));
}

TEST(JudgedForwards, ForgettingAtTheBoundLeavesAUsableTable) {
  JudgedForwards judged;
  for (SeqNo s = 0; s <= 8192; ++s) {
    ASSERT_TRUE(judged.first_verdict({flow(2, s), 7}));
  }
  // 8193 pairs: this offer forgets them all, then records itself.
  EXPECT_TRUE(judged.first_verdict({flow(3, 0), 7}));
  // Refill up to the bound: every old pair is new once more, and each is
  // judged once.
  for (SeqNo s = 0; s < 8191; ++s) {
    ASSERT_TRUE(judged.first_verdict({flow(2, s), 7})) << s;
    ASSERT_FALSE(judged.first_verdict({flow(2, s), 7})) << s;
  }
  EXPECT_FALSE(judged.first_verdict({flow(3, 0), 7})) << "8192 pairs kept";
  EXPECT_FALSE(judged.first_verdict({flow(2, 8190), 7}));
  EXPECT_TRUE(judged.first_verdict({flow(2, 9000), 7}));
  // 8193 pairs again: the next offer forgets the lot a second time.
  EXPECT_TRUE(judged.first_verdict({flow(3, 0), 7}));
  EXPECT_TRUE(judged.first_verdict({flow(2, 5), 7}));
}

}  // namespace
}  // namespace lw::lite
