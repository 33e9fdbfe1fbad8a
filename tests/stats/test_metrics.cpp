// Metrics collector: ground-truth classification and isolation tracking,
// fed the route/mon/atk events through a recorder, as in a run: the
// collector classifies the route and atk events itself and reads the mon
// events from the incident fold; plain per-kind counts are the recorder's
// tally.
#include <gtest/gtest.h>

#include "stats/metrics.h"
#include "topology/field.h"

namespace lw::stats {
namespace {

using obs::EventKind;

class MetricsTest : public ::testing::Test {
 protected:
  // Line 0-1-2-3-4 (spacing 20, range 25): consecutive nodes adjacent.
  MetricsTest()
      : graph_(topo::place_line(5, 20.0), 25.0),
        metrics_(graph_, {2}, incidents_) {
    recorder_.add_sink(&incidents_, forensics::IncidentBuilder::kLayers);
    recorder_.add_sink(&metrics_, MetricsCollector::kLayers);
  }

  /// `source` cached `path` (route.established carries the winning REP).
  void route_established(NodeId source, pkt::NodeList path) {
    pkt::Packet rep;
    rep.route = std::move(path);
    recorder_.emit({.kind = EventKind::kRouteEstablished,
                    .node = source,
                    .peer = rep.route.back(),
                    .value = static_cast<double>(rep.route.size() - 1),
                    .packet = &rep});
  }
  void local_detection(NodeId guard, NodeId suspect, Time t = 0.0) {
    recorder_.emit({.t = t,
                    .kind = EventKind::kMonDetection,
                    .node = guard,
                    .peer = suspect});
  }
  void isolation(NodeId node, NodeId suspect, Time t = 0.0) {
    recorder_.emit({.t = t,
                    .kind = EventKind::kMonIsolation,
                    .node = node,
                    .peer = suspect,
                    .value = 3.0});
  }
  void suspicion(NodeId guard, NodeId suspect, std::uint8_t detail) {
    recorder_.emit({.kind = EventKind::kMonSuspicion,
                    .node = guard,
                    .peer = suspect,
                    .detail = detail});
  }
  /// route.deliver at `t` of a packet created at `created_at`.
  void delivered(Time t, Time created_at) {
    recorder_.emit({.t = t,
                    .kind = EventKind::kRouteDeliver,
                    .node = 4,
                    .value = t - created_at});
  }

  topo::DiscGraph graph_;
  forensics::IncidentBuilder incidents_;
  MetricsCollector metrics_;
  obs::Recorder recorder_;
};

TEST_F(MetricsTest, PhysicalRouteIsClean) {
  route_established(0, {0, 1, 2, 3});
  EXPECT_EQ(recorder_.count(EventKind::kRouteEstablished), 1u);
  EXPECT_EQ(metrics_.wormhole_routes, 0u);
  EXPECT_EQ(metrics_.routes_via_malicious, 1u) << "node 2 is malicious";
  EXPECT_EQ(metrics_.routes_via_malicious_transit, 1u);
}

TEST_F(MetricsTest, FakeLinkClassifiedAsWormhole) {
  // 1 -> 4 is not a physical link (60 m apart).
  route_established(0, {0, 1, 4});
  EXPECT_EQ(metrics_.wormhole_routes, 1u);
  EXPECT_EQ(metrics_.wormhole_route_times.size(), 1u);
}

TEST_F(MetricsTest, MaliciousEndpointIsNotTransit) {
  route_established(2, {2, 3, 4});
  EXPECT_EQ(metrics_.routes_via_malicious, 1u);
  EXPECT_EQ(metrics_.routes_via_malicious_transit, 0u)
      << "the malicious node's own traffic is not a captured route";
}

TEST_F(MetricsTest, IsolationRequiresAllHonestNeighbors) {
  // Malicious node 2 has honest neighbors {1, 3}.
  ASSERT_EQ(metrics_.isolation().size(), 1u);
  EXPECT_EQ(metrics_.isolation()[0].node, 2u);
  EXPECT_EQ(metrics_.isolation()[0].required, 2u);

  local_detection(1, 2);
  EXPECT_FALSE(metrics_.all_malicious_isolated());
  isolation(3, 2);
  EXPECT_TRUE(metrics_.all_malicious_isolated());
  EXPECT_EQ(metrics_.malicious_isolated_count(), 1u);
  EXPECT_EQ(metrics_.isolation()[0].revoked, 2u);
}

TEST_F(MetricsTest, IsolationLatencyIsMaxOverMalicious) {
  local_detection(1, 2, /*t=*/10.0);
  isolation(3, 2, /*t=*/25.0);
  auto latency = metrics_.isolation_latency(/*attack_start=*/5.0);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(*latency, 20.0);
}

TEST_F(MetricsTest, CompleteIsolationUsesEachNeighborsFirstRevocation) {
  local_detection(1, 2, /*t=*/10.0);
  isolation(1, 2, /*t=*/30.0);  // node 1 revoked node 2 already at t=10
  isolation(3, 2, /*t=*/20.0);
  ASSERT_TRUE(metrics_.isolation()[0].complete.has_value());
  EXPECT_DOUBLE_EQ(*metrics_.isolation()[0].complete, 20.0);
}

TEST(MetricsNoHonestNeighbor, CompleteAtTheFirstRevocation) {
  // Line 0-1-2-3-4 with 1, 2 and 3 malicious: node 2 has no honest
  // neighbor, so its first revocation completes its isolation.
  const topo::DiscGraph graph(topo::place_line(5, 20.0), 25.0);
  forensics::IncidentBuilder incidents;
  MetricsCollector metrics(graph, {3, 1, 2}, incidents);
  obs::Recorder recorder;
  recorder.add_sink(&incidents, forensics::IncidentBuilder::kLayers);
  recorder.emit({.t = 7.0, .kind = EventKind::kMonIsolation, .node = 4,
                 .peer = 2});
  recorder.emit({.t = 9.0, .kind = EventKind::kMonDetection, .node = 0,
                 .peer = 2});
  const std::vector<Isolation> isolation = metrics.isolation();
  ASSERT_EQ(isolation.size(), 3u);
  EXPECT_EQ(isolation[1].node, 2u) << "ascending by id";
  EXPECT_EQ(isolation[1].required, 0u);
  EXPECT_EQ(isolation[1].revoked, 2u);
  ASSERT_TRUE(isolation[1].complete.has_value());
  EXPECT_DOUBLE_EQ(*isolation[1].complete, 7.0);
  EXPECT_EQ(metrics.malicious_isolated_count(), 1u);
  EXPECT_FALSE(metrics.isolation_latency(0.0).has_value());
}

TEST_F(MetricsTest, IncompleteIsolationHasNoLatency) {
  local_detection(1, 2);
  EXPECT_FALSE(metrics_.isolation_latency(0.0).has_value());
}

TEST_F(MetricsTest, FalseAccusationsTracked) {
  local_detection(0, 3);  // node 3 is honest
  EXPECT_EQ(metrics_.accusations().false_local_detections, 1u);
  EXPECT_EQ(metrics_.accusations().false_isolations, 0u)
      << "a lone guard's conviction is not a network isolation";
  isolation(4, 3);  // gamma-confirmed: THE false alarm
  EXPECT_EQ(metrics_.accusations().false_isolations, 1u);
}

TEST_F(MetricsTest, SuspicionClassification) {
  suspicion(0, 2, obs::kSuspicionFabrication);
  suspicion(0, 3, obs::kSuspicionDrop);
  const Accusations accusations = metrics_.accusations();
  EXPECT_EQ(accusations.suspicions_fabrication, 1u);
  EXPECT_EQ(accusations.suspicions_drop, 1u);
  EXPECT_EQ(accusations.false_suspicions, 1u) << "only the one against node 3";
}

TEST_F(MetricsTest, DropAccountingWithTimestamps) {
  pkt::Packet data;
  recorder_.emit({.t = 3.0,
                  .kind = EventKind::kAtkDrop,
                  .node = 2,
                  .packet = &data});
  EXPECT_EQ(recorder_.count(EventKind::kAtkDrop), 1u);
  ASSERT_EQ(metrics_.drop_times.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.drop_times[0], 3.0);
}

TEST_F(MetricsTest, DeliveryLatencyStatistics) {
  for (double latency : {1.0, 2.0, 3.0, 4.0}) delivered(10.0 + latency, 10.0);
  ASSERT_EQ(metrics_.delivery_latencies.size(), 4u);
  EXPECT_DOUBLE_EQ(metrics_.delivery_latency_sum, 10.0);
  EXPECT_NEAR(metrics_.mean_delivery_latency(), 2.5, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(100.0), 4.0, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(50.0), 2.5, 1e-9);
}

TEST_F(MetricsTest, LatencyOnEmptyRunIsZero) {
  EXPECT_DOUBLE_EQ(metrics_.mean_delivery_latency(), 0.0);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(95.0), 0.0);
}

TEST_F(MetricsTest, ExtremePercentilesOnEmptyRunAreZero) {
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(100.0), 0.0);
}

TEST_F(MetricsTest, SingleSampleIsEveryPercentile) {
  delivered(12.5, 10.0);
  ASSERT_EQ(metrics_.delivery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.mean_delivery_latency(), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(50.0), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(100.0), 2.5);
}

TEST_F(MetricsTest, PercentileInterpolatesBetweenSamples) {
  for (double latency : {1.0, 2.0, 3.0, 4.0}) delivered(10.0 + latency, 10.0);
  // rank = 0.25 * 3 = 0.75: three quarters of the way from 1.0 to 2.0.
  EXPECT_NEAR(metrics_.latency_percentile(25.0), 1.75, 1e-12);
  EXPECT_NEAR(metrics_.latency_percentile(95.0), 3.85, 1e-12);
}

TEST(MetricsCumulative, CumulativeAtCountsSortedTimes) {
  std::vector<Time> times{1.0, 2.0, 2.0, 5.0};
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 0.5), 0u);
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 2.0), 3u);
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 10.0), 4u);
}

}  // namespace
}  // namespace lw::stats
