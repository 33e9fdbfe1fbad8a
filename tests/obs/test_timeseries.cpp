// Telemetry series: bucket semantics on a bare simulator, end-to-end
// determinism (repeat runs, sweep thread counts, series-on vs series-off
// neutrality) and the golden series fixture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "scenario/runner.h"
#include "scenario/sweep.h"
#include "sim/simulator.h"

namespace lw::obs {
namespace {

Event make_event(Time t, EventKind kind) {
  Event event;
  event.t = t;
  event.kind = kind;
  event.node = 1;
  return event;
}

/// Harness: a bare simulator whose tick hook closes sampler buckets, with
/// events emitted straight into a Recorder (no protocol stack).
struct SeriesHarness {
  sim::Simulator simulator;
  Recorder recorder;
  TelemetrySampler sampler{1.0};

  explicit SeriesHarness(Duration bucket = 1.0) : sampler(bucket) {
    simulator.set_tick_hook(bucket, [this](Time boundary) {
      sampler.close_bucket(boundary, sample());
    });
  }

  BucketSample sample() {
    BucketSample s;
    s.layer_events = recorder.layer_counts();
    s.events_executed = simulator.executed();
    s.queue_depth = simulator.pending();
    s.queue_high_water = simulator.take_window_max_pending();
    return s;
  }

  void emit_at(Time t, EventKind kind) {
    simulator.schedule_at(t, [this, t, kind] {
      recorder.emit(make_event(t, kind));
    });
  }

  SeriesReport report() { return sampler.report(sample()); }
};

TEST(TimeSeries, EventsFallIntoLeftClosedRightOpenBuckets) {
  SeriesHarness h;
  h.emit_at(0.5, EventKind::kPhyTx);
  h.emit_at(0.9, EventKind::kMacBackoff);
  h.emit_at(1.5, EventKind::kPhyTx);
  h.simulator.run_all();

  const SeriesReport report = h.report();
  ASSERT_EQ(report.buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(report.buckets[0].start, 0.0);
  EXPECT_EQ(report.buckets[0].events_emitted, 2u);
  EXPECT_EQ(report.buckets[0]
                .layer_events[static_cast<std::size_t>(Layer::kPhy)],
            1u);
  EXPECT_EQ(report.buckets[0]
                .layer_events[static_cast<std::size_t>(Layer::kMac)],
            1u);
  // The trailing partial bucket [1, 1.5...] carries the last event.
  EXPECT_DOUBLE_EQ(report.buckets[1].start, 1.0);
  EXPECT_EQ(report.buckets[1].events_emitted, 1u);
}

TEST(TimeSeries, EventExactlyOnBoundaryLandsInNextBucket) {
  SeriesHarness h;
  h.emit_at(0.5, EventKind::kPhyTx);
  h.emit_at(1.0, EventKind::kPhyTx);  // boundary: belongs to bucket [1, 2)
  h.simulator.run_all();

  const SeriesReport report = h.report();
  ASSERT_EQ(report.buckets.size(), 2u);
  EXPECT_EQ(report.buckets[0].events_emitted, 1u);
  EXPECT_EQ(report.buckets[1].events_emitted, 1u);
}

TEST(TimeSeries, QuietGapClosesEveryInterveningBucket) {
  SeriesHarness h;
  h.emit_at(0.5, EventKind::kPhyTx);
  h.emit_at(3.5, EventKind::kPhyTx);
  h.simulator.run_all();

  const SeriesReport report = h.report();
  // Boundaries 1, 2, 3 all fire before the t=3.5 event pops, then the
  // trailing partial bucket [3, ...) carries it.
  ASSERT_EQ(report.buckets.size(), 4u);
  EXPECT_EQ(report.buckets[0].events_emitted, 1u);
  EXPECT_EQ(report.buckets[1].events_emitted, 0u);
  EXPECT_EQ(report.buckets[2].events_emitted, 0u);
  EXPECT_DOUBLE_EQ(report.buckets[3].start, 3.0);
  EXPECT_EQ(report.buckets[3].events_emitted, 1u);
  // Executed-event deltas track the simulator: 1 event in bucket 0, none
  // in the gap, 1 in the tail.
  EXPECT_EQ(report.buckets[0].events_executed, 1u);
  EXPECT_EQ(report.buckets[1].events_executed, 0u);
  EXPECT_EQ(report.buckets[3].events_executed, 1u);
}

TEST(TimeSeries, NoTrailingBucketWhenTailIsQuiet) {
  SeriesHarness h;
  h.emit_at(0.5, EventKind::kPhyTx);
  h.simulator.run_all();
  // run_all stops right after the last event; boundary 1.0 has not fired,
  // so the report's final (and only) bucket is the trailing partial one.
  const SeriesReport once = h.report();
  ASSERT_EQ(once.buckets.size(), 1u);
  // A second report() call without new activity adds nothing: the sampler
  // treats the unchanged tail as quiet.
  EXPECT_EQ(h.report().buckets.size(), 1u);
}

TEST(TimeSeries, BucketsAreDifferencesOfCumulativeSamples) {
  constexpr std::size_t kRoute = static_cast<std::size_t>(Layer::kRouting);
  TelemetrySampler sampler(1.0);
  BucketSample first;
  first.layer_events[kRoute] = 4;
  first.events_executed = 10;
  first.deliveries = 3;
  first.delivery_latency_sum = 1.5;
  first.self_seconds[kRoute] = 0.25;
  sampler.close_bucket(1.0, first);
  BucketSample second = first;
  second.layer_events[kRoute] = 6;
  second.events_executed = 12;
  second.deliveries = 5;
  second.delivery_latency_sum = 2.5;
  second.self_seconds[kRoute] = 0.75;

  const SeriesReport report = sampler.report(second);
  ASSERT_EQ(report.buckets.size(), 2u);
  const SeriesBucket& tail = report.buckets[1];
  EXPECT_EQ(tail.layer_events[kRoute], 2u);
  EXPECT_EQ(tail.events_emitted, 2u);
  EXPECT_EQ(tail.events_executed, 2u);
  EXPECT_EQ(tail.deliveries, 2u);
  EXPECT_DOUBLE_EQ(tail.delivery_latency_sum, 1.0);
  EXPECT_DOUBLE_EQ(tail.layer_self_seconds[kRoute], 0.5);
  EXPECT_EQ(report.buckets[0].deliveries, 3u) << "first bucket: from zero";
}

TEST(TimeSeries, JsonOmitsTimingUnlessRequested) {
  SeriesHarness h;
  h.emit_at(0.5, EventKind::kPhyTx);
  h.simulator.run_all();
  const SeriesReport report = h.report();
  const std::string plain = series_to_json(report, false);
  const std::string timed = series_to_json(report, true);
  EXPECT_EQ(plain.find("self_seconds"), std::string::npos);
  EXPECT_NE(timed.find("self_seconds"), std::string::npos);
  EXPECT_NE(plain.find("\"queue_high_water\""), std::string::npos);
  EXPECT_NE(plain.find("\"memory_high_water\""), std::string::npos);
}

}  // namespace
}  // namespace lw::obs

namespace lw::scenario {
namespace {

ExperimentConfig series_config() {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = 99;
  config.duration = 150.0;
  config.malicious_count = 2;
  config.obs.series = true;
  config.obs.series_bucket = 10.0;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SeriesEndToEnd, RepeatedRunsProduceByteIdenticalSeries) {
  const RunResult a = run_experiment(series_config());
  const RunResult b = run_experiment(series_config());
  ASSERT_TRUE(a.series.enabled);
  ASSERT_FALSE(a.series.buckets.empty());
  EXPECT_EQ(obs::series_to_json(a.series, false),
            obs::series_to_json(b.series, false));
}

TEST(SeriesEndToEnd, SamplingNeverPerturbsTheRun) {
  // The telemetry hook only observes: with --series on, every deterministic
  // output of the run — trace bytes, counters, delivery latencies, events
  // executed — must match the series-off run exactly.
  auto with_series = series_config();
  with_series.obs.trace = true;
  with_series.obs.profile = true;
  with_series.obs.counters = true;
  auto without_series = with_series;
  without_series.obs.series = false;

  const RunResult on = run_experiment(with_series);
  const RunResult off = run_experiment(without_series);
  EXPECT_EQ(on.trace_jsonl, off.trace_jsonl);
  EXPECT_EQ(on.profile.events_executed, off.profile.events_executed);
  EXPECT_EQ(on.profile.max_queue_depth, off.profile.max_queue_depth);
  EXPECT_EQ(on.registry.counters, off.registry.counters);
  EXPECT_EQ(on.mean_delivery_latency, off.mean_delivery_latency);
  EXPECT_EQ(on.p95_delivery_latency, off.p95_delivery_latency);
}

TEST(SeriesEndToEnd, ByteIdenticalAcrossSweepThreadCounts) {
  const auto run_with_threads = [](int threads) {
    SweepSpec spec;
    spec.base = series_config();
    spec.points.push_back({.label = "series", .mutate = nullptr});
    spec.runs = 3;
    spec.base_seed = 7;
    spec.threads = threads;
    return run_sweep(spec);
  };
  const SweepResult serial = run_with_threads(1);
  const SweepResult parallel = run_with_threads(4);
  ASSERT_EQ(serial.points[0].replicas.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(obs::series_to_json(serial.points[0].replicas[i].series, false),
              obs::series_to_json(parallel.points[0].replicas[i].series,
                                  false))
        << "replica " << i;
  }
  // The whole default sweep JSON (series objects embedded) must match too.
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

TEST(SeriesEndToEnd, GoldenSeriesFixtureMatchesCheckedIn) {
  // Byte-exact fixture for the series JSON of a fixed-seed run. CI runs
  // this test in both the Release and the ASan build, which together with
  // the cross-thread test above enforces the full determinism contract:
  // same bytes per seed at any thread count and across build types.
  // Regenerate after intentional schema changes:
  //   LW_UPDATE_GOLDEN=1 ./build/tests/test_timeseries
  const RunResult result = run_experiment(series_config());
  ASSERT_TRUE(result.series.enabled);
  const std::string json = obs::series_to_json(result.series, false);
  const std::string path =
      std::string(LW_GOLDEN_DIR) + "/golden_series.json";

  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << json << "\n";
    GTEST_SKIP() << "fixture regenerated at " << path;
  }

  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(json + "\n", expected)
      << "series schema changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace lw::scenario
