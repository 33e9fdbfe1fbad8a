// Sweep engine: thread-count invariance, one-code-path aggregation,
// machine-readable output, config validation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "scenario/sweep.h"

namespace lw::scenario {
namespace {

ExperimentConfig small_config() {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.duration = 100.0;
  config.malicious_count = 2;
  config.finalize();
  return config;
}

SweepSpec two_point_spec(int threads) {
  SweepSpec spec;
  spec.base = small_config();
  spec.points.push_back(
      {"M=0", [](ExperimentConfig& c) { c.malicious_count = 0; }, 0});
  spec.points.push_back({"M=2", nullptr, 0});
  spec.runs = 4;
  spec.base_seed = 7;
  spec.threads = threads;
  return spec;
}

void expect_same_aggregate(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.data_originated, b.data_originated);
  EXPECT_EQ(a.data_dropped_malicious, b.data_dropped_malicious);
  EXPECT_EQ(a.fraction_dropped, b.fraction_dropped);
  EXPECT_EQ(a.fraction_dropped_sem, b.fraction_dropped_sem);
  EXPECT_EQ(a.routes_established, b.routes_established);
  EXPECT_EQ(a.wormhole_routes, b.wormhole_routes);
  EXPECT_EQ(a.fraction_wormhole_routes, b.fraction_wormhole_routes);
  EXPECT_EQ(a.fraction_wormhole_routes_sem, b.fraction_wormhole_routes_sem);
  EXPECT_EQ(a.false_isolations, b.false_isolations);
  EXPECT_EQ(a.detection_probability, b.detection_probability);
  EXPECT_EQ(a.detection_probability_sem, b.detection_probability_sem);
  ASSERT_EQ(a.mean_isolation_latency.has_value(),
            b.mean_isolation_latency.has_value());
  if (a.mean_isolation_latency) {
    EXPECT_EQ(*a.mean_isolation_latency, *b.mean_isolation_latency);
  }
  EXPECT_EQ(a.runs_fully_isolated, b.runs_fully_isolated);
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  SweepResult serial = run_sweep(two_point_spec(1));
  SweepResult threaded = run_sweep(two_point_spec(4));

  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_EQ(threaded.points.size(), 2u);
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    SCOPED_TRACE(serial.points[p].label);
    EXPECT_EQ(serial.points[p].label, threaded.points[p].label);
    expect_same_aggregate(serial.points[p].aggregate,
                          threaded.points[p].aggregate);
    ASSERT_EQ(serial.points[p].replicas.size(), 4u);
    ASSERT_EQ(threaded.points[p].replicas.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      const RunResult& a = serial.points[p].replicas[i];
      const RunResult& b = threaded.points[p].replicas[i];
      EXPECT_EQ(a.seed, 7u + i) << "seeds assigned by grid index";
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_EQ(a.data_originated, b.data_originated);
      EXPECT_EQ(a.data_delivered, b.data_delivered);
      EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
      EXPECT_EQ(a.local_detections, b.local_detections);
      EXPECT_EQ(a.drop_times, b.drop_times);
    }
  }
}

TEST(Sweep, ProgressReportsEveryJobOnce) {
  SweepSpec spec = two_point_spec(2);
  spec.runs = 2;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  std::size_t last_total = 0;
  spec.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_done = done;
    last_total = total;
  };
  run_sweep(spec);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(last_done, 4u);
  EXPECT_EQ(last_total, 4u);
}

TEST(Sweep, AverageRunsMatchesAcrossThreadCounts) {
  auto config = small_config();
  config.malicious_count = 0;
  Aggregate serial = average_runs(config, 3, 11, 1);
  Aggregate threaded = average_runs(config, 3, 11, 3);
  expect_same_aggregate(serial, threaded);
  EXPECT_GT(serial.data_originated, 0.0);
}

TEST(Sweep, SeedOffsetShiftsReplicaSeeds) {
  SweepSpec spec;
  spec.base = small_config();
  spec.base.malicious_count = 0;
  spec.base.duration = 30.0;
  spec.points.push_back({"shifted", nullptr, 100});
  spec.runs = 2;
  spec.base_seed = 5;
  SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.points[0].replicas.size(), 2u);
  EXPECT_EQ(result.points[0].replicas[0].seed, 105u);
  EXPECT_EQ(result.points[0].replicas[1].seed, 106u);
}

TEST(Aggregate, ReduceMatchesHandComputedMeanAndSem) {
  // fraction_dropped per run: 0.1, 0.2, 0.3 -> mean 0.2, sample sd 0.1,
  // SEM 0.1/sqrt(3). detection: 0.5, 1.0, 1.0 over 2 malicious each.
  std::vector<RunResult> results(3);
  for (std::size_t i = 0; i < 3; ++i) {
    results[i].data_originated = 100;
    results[i].data_dropped_malicious = 10 * (i + 1);
    results[i].routes_established = 10;
    results[i].wormhole_routes = i;
    results[i].malicious_count = 2;
    results[i].malicious_isolated = i == 0 ? 1 : 2;
  }
  results[1].isolation_latency = 20.0;
  results[2].isolation_latency = 40.0;

  Aggregate agg = Aggregate::reduce(results);
  EXPECT_EQ(agg.runs, 3);
  EXPECT_DOUBLE_EQ(agg.data_originated, 100.0);
  EXPECT_DOUBLE_EQ(agg.data_dropped_malicious, 20.0);
  EXPECT_DOUBLE_EQ(agg.fraction_dropped, 0.2);
  EXPECT_NEAR(agg.fraction_dropped_sem, 0.1 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(agg.routes_established, 10.0);
  EXPECT_DOUBLE_EQ(agg.wormhole_routes, 1.0);
  EXPECT_DOUBLE_EQ(agg.fraction_wormhole_routes, 0.1);
  // detection values 0.5, 1.0, 1.0: mean 5/6, sample variance
  // ((1/3)^2 + (1/6)^2 + (1/6)^2) / 2 = 1/12, SEM sqrt(1/12/3) = 1/6.
  EXPECT_NEAR(agg.detection_probability, 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(agg.detection_probability_sem, 1.0 / 6.0, 1e-12);
  ASSERT_TRUE(agg.mean_isolation_latency.has_value());
  EXPECT_DOUBLE_EQ(*agg.mean_isolation_latency, 30.0);
  EXPECT_EQ(agg.runs_fully_isolated, 2);
}

TEST(Aggregate, ReduceEmptyIsZeroRuns) {
  Aggregate agg = Aggregate::reduce({});
  EXPECT_EQ(agg.runs, 0);
  EXPECT_DOUBLE_EQ(agg.data_originated, 0.0);
  EXPECT_FALSE(agg.mean_isolation_latency.has_value());
}

TEST(Sweep, ToJsonRoundTripsLabelsAndCounters) {
  SweepResult result;
  result.wall_seconds = 1.5;
  result.threads_used = 2;
  result.points.resize(1);
  result.points[0].label = "gamma=\"3\"";
  result.points[0].replicas.resize(1);
  result.points[0].replicas[0].seed = 42;
  result.points[0].replicas[0].data_originated = 1234;
  result.points[0].replicas[0].wormhole_routes = 5;
  result.points[0].aggregate = Aggregate::reduce(result.points[0].replicas);

  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"label\":\"gamma=\\\"3\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"data_originated\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"wormhole_routes\":5"), std::string::npos);
  EXPECT_NE(json.find("\"mean_isolation_latency\":null"), std::string::npos);
  // Timing metadata must NOT leak into the JSON — it would break the
  // byte-identical-across-thread-counts guarantee.
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(json.find("cpu_seconds"), std::string::npos);
  // Aggregate of that single run: originated mean is numeric, not quoted.
  EXPECT_NE(json.find("\"runs\":1"), std::string::npos);
}

TEST(Sweep, RejectsEmptyAndNonPositiveSpecs) {
  SweepSpec spec;
  spec.base = small_config();
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);  // no points
  spec.points.push_back({"p", nullptr, 0});
  spec.runs = 0;
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
}

TEST(Config, ValidateRejectsContradictions) {
  auto config = ExperimentConfig::table2_defaults();
  config.validate();  // defaults are sane

  auto late_with_oracle = config;
  late_with_oracle.late_joiners = 2;
  late_with_oracle.oracle_discovery = true;
  EXPECT_THROW(late_with_oracle.validate(), std::invalid_argument);

  auto mismatched_malicious = config;
  mismatched_malicious.malicious_count = 2;
  mismatched_malicious.malicious_nodes = {1, 2, 3};
  EXPECT_THROW(mismatched_malicious.validate(), std::invalid_argument);

  auto short_positions = config;
  short_positions.node_count = 5;
  short_positions.positions = std::vector<topo::Position>{{0, 0}, {10, 0}};
  EXPECT_THROW(short_positions.validate(), std::invalid_argument);

  auto too_many_attackers = config;
  too_many_attackers.malicious_count = too_many_attackers.node_count + 1;
  EXPECT_THROW(too_many_attackers.validate(), std::invalid_argument);

  auto bad_gamma = config;
  bad_gamma.defense.liteworp.detection_confidence = 0;
  EXPECT_THROW(bad_gamma.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsOutOfRangeMaliciousId) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 4;
  config.late_joiners = 1;
  config.malicious_count = 1;
  config.malicious_nodes = {4};  // the late joiner: still in range
  EXPECT_NO_THROW(config.validate());
  config.malicious_nodes = {5};
  try {
    config.validate();
    FAIL() << "an id past node_count + late_joiners must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "ExperimentConfig: malicious_nodes id 5 is out of range"),
              std::string::npos)
        << e.what();
  }
  // The Network constructor reaches the same check, before any placement.
  EXPECT_THROW(Network net(config), std::invalid_argument);
}

TEST(Config, RunExperimentFinalizesAndValidatesInternally) {
  // Deliberately skip finalize(): the silly phase ordering must be fixed
  // internally, and the run must succeed.
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 20;
  config.duration = 60.0;
  config.malicious_count = 0;
  config.traffic.start_time = 0.0;
  config.attack.start_time = 1.0;
  RunResult result = run_experiment(config);
  EXPECT_GE(result.attack_start, 0.0);
  EXPECT_EQ(result.malicious_count, 0u);

  // And a contradictory config is rejected up front.
  config.late_joiners = 1;
  config.oracle_discovery = true;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

TEST(Sweep, SweepRejectsContradictoryPointBeforeRunning) {
  SweepSpec spec;
  spec.base = small_config();
  spec.points.push_back({"bad", [](ExperimentConfig& c) {
                           c.late_joiners = 1;
                           c.oracle_discovery = true;
                         }, 0});
  spec.runs = 1;
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace lw::scenario
