// Scenario wiring: topology constraints, determinism, config handling.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "scenario/runner.h"

namespace lw::scenario {
namespace {

TEST(Config, TableTwoDefaults) {
  auto config = ExperimentConfig::table2_defaults();
  EXPECT_EQ(config.node_count, 100u);
  EXPECT_DOUBLE_EQ(config.radio_range, 30.0);
  EXPECT_DOUBLE_EQ(config.target_neighbors, 8.0);
  EXPECT_DOUBLE_EQ(config.phy.bandwidth_bps, 40000.0);
  EXPECT_DOUBLE_EQ(config.routing.route_timeout, 50.0);
  EXPECT_DOUBLE_EQ(config.traffic.destination_change_rate, 1.0 / 200.0);
  EXPECT_DOUBLE_EQ(config.attack.start_time, 50.0);
  EXPECT_DOUBLE_EQ(config.duration, 2000.0);
  EXPECT_EQ(config.defense.name, "liteworp");
}

TEST(Config, FinalizeOrdersPhases) {
  auto config = ExperimentConfig::table2_defaults();
  config.traffic.start_time = 0.0;  // silly value
  config.attack.start_time = 1.0;
  config.finalize();
  EXPECT_GE(config.traffic.start_time, config.phy.collision_free_until);
  EXPECT_GE(config.attack.start_time, config.traffic.start_time);
}

TEST(Config, SummaryMentionsKeyParameters) {
  auto config = ExperimentConfig::table2_defaults();
  std::string text = config.summary();
  EXPECT_NE(text.find("30 m"), std::string::npos);
  EXPECT_NE(text.find("40 kbps"), std::string::npos);
  EXPECT_NE(text.find("out-of-band"), std::string::npos);
}

TEST(Network, TopologyIsConnectedWithSeparatedAttackers) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 50;
  config.seed = 17;
  config.duration = 1.0;
  config.malicious_count = 2;
  config.finalize();
  Network net(config);
  EXPECT_TRUE(net.graph().connected());
  ASSERT_EQ(net.malicious_ids().size(), 2u);
  auto hops = net.graph().hop_distance(net.malicious_ids()[0],
                                       net.malicious_ids()[1]);
  ASSERT_TRUE(hops.has_value());
  EXPECT_GE(*hops, 3u) << "paper: colluders more than 2 hops apart";
}

TEST(Network, PlacementFailureNamesSizeAttemptsAndField) {
  // Two colluders more than 2 hops apart cannot fit in a connected 3-node
  // field: the message says what was tried, so the caller knows what to
  // relax.
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 3;
  config.malicious_count = 2;
  config.max_topology_retries = 5;
  config.field_side = 50.0;
  config.duration = 1.0;
  config.finalize();
  try {
    Network net(config);
    FAIL() << "placement should have failed";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("could not build a connected topology", 0), 0u)
        << message;
    EXPECT_NE(message.find("N=3, 5 placement attempts, 50.0 m square field"),
              std::string::npos)
        << message;
  }
}

TEST(Network, DensityNearTarget) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 100;
  config.seed = 1;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_GT(net.average_degree(), 5.0);
  EXPECT_LT(net.average_degree(), 11.0);
}

TEST(Network, ZeroMaliciousIsClean) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.seed = 4;
  config.duration = 120.0;
  config.malicious_count = 0;
  config.finalize();
  RunResult result = run_experiment(config);
  EXPECT_EQ(result.malicious_count, 0u);
  EXPECT_EQ(result.data_dropped_malicious, 0u);
  EXPECT_EQ(result.wormhole_routes, 0u);
  EXPECT_TRUE(result.all_isolated) << "vacuously true";
}

TEST(Network, DeterministicForSameSeed) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 40;
  config.seed = 12;
  config.duration = 200.0;
  config.finalize();
  RunResult a = run_experiment(config);
  RunResult b = run_experiment(config);
  EXPECT_EQ(a.data_originated, b.data_originated);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.data_dropped_malicious, b.data_dropped_malicious);
  EXPECT_EQ(a.routes_established, b.routes_established);
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.local_detections, b.local_detections);
}

TEST(Network, DifferentSeedsDiffer) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 40;
  config.duration = 200.0;
  config.seed = 12;
  config.finalize();
  RunResult a = run_experiment(config);
  config.seed = 13;
  RunResult b = run_experiment(config);
  EXPECT_NE(a.frames_transmitted, b.frames_transmitted);
}

TEST(Runner, CumulativeSeriesShape) {
  std::vector<Time> times{10.0, 20.0, 20.0, 90.0};
  auto series = cumulative_series(times, 100.0, 25.0);
  ASSERT_EQ(series.size(), 5u);  // t = 0, 25, 50, 75, 100
  EXPECT_DOUBLE_EQ(series[0].value, 0.0);
  EXPECT_DOUBLE_EQ(series[1].value, 3.0);
  EXPECT_DOUBLE_EQ(series[4].value, 4.0);
}

TEST(Runner, AverageRunsAggregates) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.duration = 150.0;
  config.malicious_count = 0;
  config.finalize();
  Aggregate agg = average_runs(config, 2, 100);
  EXPECT_EQ(agg.runs, 2);
  EXPECT_GT(agg.data_originated, 0.0);
  EXPECT_DOUBLE_EQ(agg.detection_probability, 1.0) << "nothing to miss";
  EXPECT_DOUBLE_EQ(agg.fraction_dropped, 0.0);
}

TEST(Network, ExplicitPositionsHonored) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 4;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}};
  config.malicious_count = 0;
  config.traffic.data_rate = 0.0;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_DOUBLE_EQ(net.graph().position(2).x, 40.0);
  EXPECT_TRUE(net.graph().is_neighbor(0, 1));
  EXPECT_FALSE(net.graph().is_neighbor(0, 2));
}

TEST(Network, ExplicitPositionsSizeMismatchThrows) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 5;
  config.positions = std::vector<topo::Position>{{0, 0}, {20, 0}};
  config.malicious_count = 0;
  config.finalize();
  EXPECT_THROW(Network net(config), std::invalid_argument);
}

TEST(Network, ExplicitMaliciousNodesHonored) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 6;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}, {10, 20}, {50, 20}};
  config.malicious_count = 2;
  config.malicious_nodes = {4, 5};
  config.traffic.data_rate = 0.0;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_EQ(net.malicious_ids(), (std::vector<NodeId>{4, 5}));
}

TEST(Network, ExplicitMaliciousOutOfBoundsThrows) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 4;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}};
  config.malicious_count = 1;
  config.malicious_nodes = {9};
  config.finalize();
  EXPECT_THROW(Network net(config), std::invalid_argument);
}

TEST(Network, RunUntilIsMonotonic) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 20;
  config.seed = 6;
  config.duration = 100.0;
  config.finalize();
  Network net(config);
  net.run_until(30.0);
  const auto mid = RunResult::from_metrics(net).data_originated;
  net.run_until(100.0);
  EXPECT_GE(RunResult::from_metrics(net).data_originated, mid);
}

// One event tally: the run metrics, the counter registry, the profile and
// the telemetry series all read the Recorder's count, so every protocol
// fact and every per-layer event total must read the same from each.
class OneStream : public ::testing::TestWithParam<std::string> {};

TEST_P(OneStream, RunResultMatchesRegistryCounters) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 40;
  config.seed = 31;
  config.duration = 300.0;
  config.defense.name = GetParam();
  config.obs.counters = true;
  config.obs.profile = true;
  config.obs.series = true;
  config.obs.series_bucket = 25.0;
  config.finalize();
  Network net(config);
  net.run();
  const RunResult r = RunResult::from_metrics(net);
  const auto& counters = r.registry.counters;
  auto count = [&counters](const char* name) -> std::uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };

  EXPECT_GT(r.data_delivered, 0u);
  EXPECT_GT(r.wormhole_replays, 0u);
  EXPECT_GT(r.local_detections, 0u) << "the scenario must exercise detection";
  EXPECT_EQ(r.data_delivered, count("route.deliver"));
  EXPECT_EQ(r.data_dropped_no_route, count("route.drop"));
  EXPECT_EQ(r.routes_established, count("route.established"));
  EXPECT_EQ(r.discoveries, count("route.discovery"));
  EXPECT_EQ(r.local_detections, count("mon.detection"));
  EXPECT_EQ(r.isolation_events, count("mon.isolation"));
  EXPECT_EQ(r.data_dropped_malicious, count("atk.drop"));
  EXPECT_EQ(r.wormhole_replays, count("atk.replay"));
  EXPECT_EQ(r.suspicions_fabrication + r.suspicions_drop +
                r.suspicions_anomaly,
            count("mon.suspicion"));

  // Per layer: profile events == registry counters summed by layer prefix
  // == series buckets summed over the run.
  std::array<std::uint64_t, obs::kLayerCount> by_prefix{};
  std::array<std::uint64_t, obs::kLayerCount> by_bucket{};
  for (const auto& [name, n] : counters) {
    for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
      const std::string prefix =
          std::string(obs::to_string(static_cast<obs::Layer>(i))) + ".";
      if (name.rfind(prefix, 0) == 0) by_prefix[i] += n;
    }
  }
  std::uint64_t deliveries = 0;
  double latency_sum = 0.0;
  for (const obs::SeriesBucket& bucket : r.series.buckets) {
    for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
      by_bucket[i] += bucket.layer_events[i];
    }
    deliveries += bucket.deliveries;
    latency_sum += bucket.delivery_latency_sum;
  }
  ASSERT_TRUE(r.profile.enabled);
  for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
    const char* layer = obs::to_string(static_cast<obs::Layer>(i));
    EXPECT_EQ(r.profile.layers[i].events, by_prefix[i]) << layer;
    EXPECT_EQ(r.profile.layers[i].events, by_bucket[i]) << layer;
  }
  EXPECT_GT(r.profile.layers[static_cast<std::size_t>(obs::Layer::kPhy)]
                .events,
            0u)
      << "profiling keeps every layer live";
  EXPECT_EQ(deliveries, r.data_delivered);
  EXPECT_NEAR(latency_sum, net.metrics().delivery_latency_sum,
              1e-9 * (1.0 + latency_sum));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, OneStream, ::testing::Values("liteworp", "zscore"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace lw::scenario
