// Sweep-harness hardening: cooperative cancellation (SIGINT path
// included) leaves complete, parseable partial output; the per-replica
// wall-clock watchdog turns stuck runs into failed replicas; faulted
// sweeps stay bit-identical across thread counts.
#include <gtest/gtest.h>

#include <csignal>
#include <string>

#include "bench/bench_common.h"
#include "scenario/sweep.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace lw {
namespace {

scenario::ExperimentConfig quick_config() {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 16;
  config.duration = 30.0;
  config.malicious_count = 0;
  config.oracle_discovery = true;
  return config;
}

/// The document parses as one complete JSON object: partial output is
/// never torn.
void expect_complete_json(const std::string& text) {
  ASSERT_NO_THROW(util::JsonValue::parse(text)) << text;
  EXPECT_TRUE(util::JsonValue::parse(text).is_object());
}

TEST(SweepCancellation, SkipsUnstartedJobsAndKeepsOutputParseable) {
  std::sig_atomic_t cancel = 0;
  scenario::SweepSpec spec;
  spec.base = quick_config();
  spec.points.push_back({"only", nullptr, 0});
  spec.runs = 4;
  spec.base_seed = 300;
  spec.threads = 1;
  spec.cancel = &cancel;
  spec.progress = [&cancel](std::size_t done, std::size_t) {
    if (done >= 1) cancel = 1;  // "SIGINT" right after the first job
  };

  const auto result = scenario::run_sweep(spec);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.jobs_skipped, 3u);
  ASSERT_EQ(result.points.size(), 1u);
  const auto& point = result.points[0];
  ASSERT_EQ(point.replicas.size(), 4u);
  EXPECT_FALSE(point.replicas[0].failed);
  EXPECT_GT(point.replicas[0].data_originated, 0u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(point.replicas[i].failed);
    EXPECT_EQ(point.replicas[i].fail_reason, "cancelled");
  }
  // The completed replica still aggregates; the skipped ones are counted
  // out, not averaged in as zeros.
  EXPECT_EQ(point.aggregate.runs, 1);
  EXPECT_EQ(point.aggregate.failed_runs, 3);

  const std::string json = scenario::to_json(result);
  expect_complete_json(json);
  EXPECT_NE(json.find("\"interrupted\":true"), std::string::npos);
  EXPECT_NE(json.find("\"jobs_skipped\":3"), std::string::npos);
  EXPECT_NE(json.find("\"fail_reason\":\"cancelled\""), std::string::npos);
}

TEST(SweepCancellation, RealSigintFollowsTheSamePath) {
  bench::detail::g_cancel = 0;
  bench::detail::install_cancel_handlers();
  std::signal(SIGINT, bench::detail::handle_cancel_signal);

  scenario::SweepSpec spec;
  spec.base = quick_config();
  spec.points.push_back({"only", nullptr, 0});
  spec.runs = 3;
  spec.base_seed = 310;
  spec.threads = 1;
  spec.cancel = &bench::detail::g_cancel;
  spec.progress = [](std::size_t done, std::size_t) {
    if (done == 1) std::raise(SIGINT);  // delivered to this process
  };

  const auto result = scenario::run_sweep(spec);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.jobs_skipped, 2u);
  expect_complete_json(scenario::to_json(result));

  bench::detail::g_cancel = 0;
  std::signal(SIGINT, SIG_DFL);
}

TEST(SweepWatchdog, RunTimeoutMarksStuckReplicaFailed) {
  scenario::SweepSpec spec;
  spec.base = quick_config();
  spec.base.duration = 1e9;  // would run (virtually) forever
  spec.points.push_back({"stuck", nullptr, 0});
  spec.runs = 1;
  spec.base_seed = 320;
  spec.threads = 1;
  spec.run_timeout_seconds = 0.2;

  const auto result = scenario::run_sweep(spec);
  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.points[0].replicas.size(), 1u);
  const auto& replica = result.points[0].replicas[0];
  EXPECT_TRUE(replica.failed);
  EXPECT_NE(replica.fail_reason.find("timeout"), std::string::npos)
      << replica.fail_reason;
  EXPECT_EQ(result.points[0].aggregate.runs, 0);
  EXPECT_EQ(result.points[0].aggregate.failed_runs, 1);

  const std::string json = scenario::to_json(result);
  expect_complete_json(json);
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
}

TEST(SweepWatchdog, RunExperimentThrowsWallClockTimeout) {
  auto config = quick_config();
  config.duration = 1e9;
  try {
    scenario::run_experiment(config, 0.1);
    FAIL() << "a 1e9 s run finished inside 0.1 wall seconds?";
  } catch (const sim::WallClockTimeout& timeout) {
    EXPECT_DOUBLE_EQ(timeout.limit_seconds, 0.1);
    EXPECT_GT(timeout.reached, 0.0);
  }
}

TEST(FaultDeterminism, FaultedSweepIsBitIdenticalAcrossThreads) {
  scenario::SweepSpec spec;
  spec.base = quick_config();
  spec.base.node_count = 20;
  spec.base.duration = 100.0;
  spec.base.oracle_discovery = false;  // dynamic join needs the real path
  spec.base.obs.trace = true;
  spec.base.obs.counters = true;
  spec.base.obs.forensics = true;
  spec.runs = 2;
  spec.base_seed = 330;
  spec.points.push_back(
      {"churn", [](scenario::ExperimentConfig& c) {
         c.fault.crashes.push_back({.node = 2, .at = 40.0, .recover_at = 70.0});
         c.fault.links.push_back(
             {.a = 3, .b = 4, .from = 30.0, .until = 60.0, .extra_loss = 1.0});
         c.fault.neighbor_age_timeout = 20.0;
         c.fault.neighbor_age_sweep_interval = 5.0;
       },
       0});
  spec.points.push_back(
      {"frame", [](scenario::ExperimentConfig& c) {
         c.fault.framings.push_back({.victim = 5, .guards = 2, .start = 50.0});
         c.fault.corruptions.push_back(
             {.node = 6, .from = 20.0, .until = 90.0, .probability = 0.5});
       },
       0});

  spec.threads = 1;
  const auto serial = scenario::run_sweep(spec);
  spec.threads = 4;
  const auto parallel = scenario::run_sweep(spec);

  EXPECT_EQ(scenario::to_json(serial), scenario::to_json(parallel));
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    ASSERT_EQ(serial.points[p].replicas.size(),
              parallel.points[p].replicas.size());
    for (std::size_t i = 0; i < serial.points[p].replicas.size(); ++i) {
      EXPECT_EQ(serial.points[p].replicas[i].trace_jsonl,
                parallel.points[p].replicas[i].trace_jsonl)
          << "point " << p << " replica " << i;
    }
    // The faulted runs actually injected something (the determinism claim
    // would be vacuous over empty traces).
    EXPECT_NE(serial.points[p].replicas[0].trace_jsonl.find("\"flt\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace lw
