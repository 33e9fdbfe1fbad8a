// Golden-file trace test: the JSONL trace of a fixed-seed scenario must be
// byte-identical to the checked-in fixture, and byte-identical whichever
// --threads value produced it.
//
// Regenerating the fixture after an intentional trace change:
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_golden_trace
// then commit tests/obs/golden_trace.jsonl with the code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/runner.h"
#include "scenario/sweep.h"

namespace lw::scenario {
namespace {

// Small but complete scenario: both colluding attackers and the LITEWORP
// monitor are active, so every protocol layer emits events.
ExperimentConfig golden_config() {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = 99;
  config.duration = 150.0;
  config.malicious_count = 2;
  config.obs.trace = true;
  config.obs.counters = true;
  return config;
}

std::string golden_path() {
  return std::string(LW_GOLDEN_DIR) + "/golden_trace.jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenTrace, MatchesCheckedInFixture) {
  // The fixture pins the neighbor/routing/monitor/attack record; PHY and
  // MAC chatter is covered by the cross-thread test below and kept out of
  // the fixture to keep it reviewably small.
  auto config = golden_config();
  config.obs.trace_layers =
      obs::parse_layer_mask("nbr,route,mon,atk");
  const RunResult result = run_experiment(config);
  ASSERT_FALSE(result.trace_jsonl.empty());

  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << result.trace_jsonl;
    GTEST_SKIP() << "fixture regenerated at " << golden_path();
  }

  const std::string expected = read_file(golden_path());
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << golden_path()
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(result.trace_jsonl, expected)
      << "trace changed; if intentional, regenerate with LW_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, PhyMacFixtureMatchesCheckedIn) {
  // Companion fixture for the per-frame hot path: every phy.tx/rx/
  // collision/loss event of the scenario, byte-for-byte. This is the
  // invariance proof for delivery-path rewrites (the spatial delivery
  // index and the fused RX delivery events must change speed, not
  // behavior); the fixture was generated before those optimizations
  // landed. Shorter horizon than the protocol fixture because PHY
  // chatter dominates trace volume; 60 s still covers discovery, routing,
  // and 10 s of the wormhole attack (attack_start = 50 s).
  auto config = golden_config();
  config.duration = 60.0;
  config.obs.trace_layers = obs::parse_layer_mask("phy");
  const RunResult result = run_experiment(config);
  ASSERT_FALSE(result.trace_jsonl.empty());

  const std::string path =
      std::string(LW_GOLDEN_DIR) + "/golden_trace_phy.jsonl";
  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << result.trace_jsonl;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }

  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(result.trace_jsonl, expected)
      << "PHY/MAC trace changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, ZScoreFixtureMatchesCheckedIn) {
  // The z-score backend's monitor record: def-tagged suspicion, detection,
  // alert and isolation lines. This scenario reaches gamma, so the fixture
  // also pins the isolation line the LITEWORP fixture never reaches.
  auto config = golden_config();
  config.defense.name = "zscore";
  config.obs.trace_layers = obs::parse_layer_mask("mon");
  const RunResult result = run_experiment(config);
  ASSERT_NE(result.trace_jsonl.find("\"event\":\"isolation\""),
            std::string::npos);

  const std::string path =
      std::string(LW_GOLDEN_DIR) + "/golden_trace_zscore.jsonl";
  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << result.trace_jsonl;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }

  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(result.trace_jsonl, expected)
      << "z-score trace changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, RepeatedRunsAreByteIdentical) {
  const RunResult a = run_experiment(golden_config());
  const RunResult b = run_experiment(golden_config());
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

TEST(GoldenTrace, ByteIdenticalAcrossSweepThreadCounts) {
  // All layers on, several replicas: the sweep engine must hand back the
  // same per-replica trace bytes at --threads 1 and --threads 4.
  const auto run_with_threads = [](int threads) {
    SweepSpec spec;
    spec.base = golden_config();
    spec.points.push_back({.label = "golden", .mutate = nullptr});
    spec.runs = 3;
    spec.base_seed = 7;
    spec.threads = threads;
    return run_sweep(spec);
  };
  const SweepResult serial = run_with_threads(1);
  const SweepResult parallel = run_with_threads(4);
  ASSERT_EQ(serial.points.size(), 1u);
  ASSERT_EQ(parallel.points.size(), 1u);
  ASSERT_EQ(serial.points[0].replicas.size(), 3u);
  ASSERT_EQ(parallel.points[0].replicas.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = serial.points[0].replicas[i];
    const auto& b = parallel.points[0].replicas[i];
    ASSERT_FALSE(a.trace_jsonl.empty());
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << "replica " << i;
  }
  // The default sweep JSON (counters included, timing excluded) must be
  // byte-identical too.
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

}  // namespace
}  // namespace lw::scenario
