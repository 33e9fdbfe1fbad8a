// Golden sweep JSON: the byte form of scenario::to_json for one small sweep
// that reaches every branch of the emitter — counters, the deterministic
// profile block, telemetry series, spans, forensics with incidents, a fault
// plan (crash with recovery, framing) and a cancelled replica.
//
// Regenerating the fixture after an intentional format change:
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_sweep
// then commit tests/scenario/golden_sweep.json with the code change.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/sweep.h"
#include "util/json.h"

namespace lw::scenario {
namespace {

std::string golden_path() {
  return std::string(LW_GOLDEN_DIR) + "/golden_sweep.json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Two points of two replicas each, run serially; the sweep is cancelled
/// once three jobs are done, so the last replica is a failed one.
SweepResult golden_sweep(std::sig_atomic_t* cancel) {
  SweepSpec spec;
  spec.base = ExperimentConfig::table2_defaults();
  spec.base.node_count = 25;
  spec.base.duration = 150.0;
  spec.base.malicious_count = 2;
  spec.base.obs.counters = true;
  spec.base.obs.profile = true;
  spec.base.obs.series = true;
  spec.base.obs.series_bucket = 50.0;
  spec.base.obs.spans = true;
  spec.base.obs.forensics = true;
  spec.points.push_back({"clean \"q\" \\", nullptr, 0});
  spec.points.push_back(
      {"faulted", [](ExperimentConfig& c) {
         c.fault.crashes.push_back({.node = 2, .at = 40.0, .recover_at = 70.0});
         c.fault.framings.push_back({.victim = 5, .guards = 2, .start = 50.0});
       },
       0});
  spec.runs = 2;
  spec.base_seed = 99;
  spec.threads = 1;
  spec.cancel = cancel;
  spec.progress = [cancel](std::size_t done, std::size_t) {
    if (done == 3) *cancel = 1;
  };
  return run_sweep(spec);
}

TEST(SweepJson, MatchesGoldenFixture) {
  std::sig_atomic_t cancel = 0;
  const SweepResult result = golden_sweep(&cancel);
  ASSERT_TRUE(result.interrupted);
  ASSERT_FALSE(result.points[0].replicas[0].incidents.empty());
  ASSERT_TRUE(result.points[1].replicas[0].fault_active);
  ASSERT_TRUE(result.points[1].replicas[1].failed);
  const std::string json = to_json(result);

  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << json;
    GTEST_SKIP() << "fixture regenerated at " << golden_path();
  }

  const std::string expected = read_file(golden_path());
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << golden_path()
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(json, expected)
      << "sweep JSON changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
  const util::JsonValue root = util::JsonValue::parse(json);
  EXPECT_EQ(root.find("points")->items()[0].string_or("label", ""),
            "clean \"q\" \\");
}

}  // namespace
}  // namespace lw::scenario
