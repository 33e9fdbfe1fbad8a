// The shared bench CLI (bench/bench_common.h): every flag-value error, in
// --defense-opt (a malformed pair, an unknown key or a value out of range)
// and in the standard flags parse_common reads, throws lw::ConfigError with
// its message, which lw::cli::run maps to exit 2 before any run (the
// Cli.* ctest rows pin that at the binaries); and the streamed --trace
// file holds completed runs only.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>

#include "bench/bench_common.h"

namespace {

/// Expects `fn` to throw lw::ConfigError whose message contains `message`.
void expect_config_error(const std::function<void()>& fn,
                         const std::string& message) {
  EXPECT_THROW(
      {
        try {
          fn();
        } catch (const lw::ConfigError& e) {
          EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
              << e.what();
          throw;
        }
      },
      lw::ConfigError);
}

void apply_opts(const std::string& opts) {
  bench::Common common;
  common.defense_opts = opts;
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  bench::apply_defense(common, config);
}

TEST(BenchCli, DefenseOptRangeErrorExitsTwo) {
  expect_config_error([] { apply_opts("liteworp.alert_repeat_gap=-1"); },
                      "must be non-negative");
}

TEST(BenchCli, DefenseOptRangeErrorOfAnUnselectedBackendExitsTwo) {
  // The base config selects LITEWORP; a sweep point may still switch to
  // z-score, so its block is checked too.
  expect_config_error([] { apply_opts("zscore.min_peers=1"); },
                      "zscore.min_peers must be at least 2");
}

TEST(BenchCli, DefenseOptParseErrorsExitTwo) {
  expect_config_error([] { apply_opts("liteworp.alert_repeats"); },
                      "expected key=value");
  expect_config_error([] { apply_opts("liteworp.nope=1"); },
                      "--defense-opt: ");
}

/// parse_common over one bench command line's flags.
void parse_flags(std::initializer_list<std::pair<const char*, const char*>>
                     flags) {
  lw::Config args;
  for (const auto& [key, value] : flags) args.set(key, value);
  bench::parse_common(args, 1, 1);
}

TEST(BenchCli, NonPositiveRunsExitsTwo) {
  expect_config_error([] { parse_flags({{"runs", "0"}}); },
                      "--runs: runs must be positive, got 0");
  expect_config_error([] { parse_flags({{"runs", "-3"}}); },
                      "runs must be positive");
}

TEST(BenchCli, UnknownDefenseExitsTwo) {
  expect_config_error([] { parse_flags({{"defense", "bogus"}}); },
                      "--defense: unknown backend \"bogus\"");
}

TEST(BenchCli, BadSeriesWidthExitsTwo) {
  expect_config_error([] { parse_flags({{"series", "abc"}}); },
                      "--series: bucket width must be a positive number");
}

TEST(BenchCli, UnknownTraceFilterLayerExitsTwo) {
  expect_config_error([] { parse_flags({{"trace-filter", "phy,bogus"}}); },
                      "--trace-filter: ");
}

TEST(BenchCli, TimedOutReplicaWritesNoTraceHeader) {
  // A replica the watchdog killed produced no trace; a run header for it
  // would fake an empty run.
  bench::Common common;
  common.runs = 2;
  common.quiet = true;
  common.run_timeout = 1e-6;
  common.trace_file = testing::TempDir() + "bench_cli_timed_out.jsonl";
  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = 40;
  spec.base.duration = 300.0;
  spec.points.push_back({.label = "timed-out", .mutate = nullptr});
  const lw::scenario::SweepResult result = bench::run_sweep(common, spec);
  ASSERT_EQ(result.points[0].aggregate.failed_runs, 2);
  std::ifstream in(common.trace_file);
  ASSERT_TRUE(in) << common.trace_file;
  const std::string trace((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(trace, "");
}

TEST(BenchCli, ValidDefenseOptsApply) {
  bench::Common common;
  common.defense_opts = "liteworp.alert_repeat_gap=0.5,zscore.min_peers=3";
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  bench::apply_defense(common, config);
  EXPECT_DOUBLE_EQ(config.defense.liteworp.alert_repeat_gap, 0.5);
  EXPECT_EQ(config.defense.zscore.min_peers, 3);
}

}  // namespace
