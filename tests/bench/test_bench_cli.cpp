// The shared bench CLI (bench/bench_common.h): every --defense-opt error,
// a malformed pair, an unknown key or a value out of range, exits 2 with
// its message before any run.
#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace {

void apply_opts(const std::string& opts) {
  bench::Common common;
  common.defense_opts = opts;
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  bench::apply_defense(common, config);
}

TEST(BenchCli, DefenseOptRangeErrorExitsTwo) {
  EXPECT_EXIT(apply_opts("liteworp.alert_repeat_gap=-1"),
              testing::ExitedWithCode(2), "must be non-negative");
}

TEST(BenchCli, DefenseOptRangeErrorOfAnUnselectedBackendExitsTwo) {
  // The base config selects LITEWORP; a sweep point may still switch to
  // z-score, so its block is checked too.
  EXPECT_EXIT(apply_opts("zscore.min_peers=1"), testing::ExitedWithCode(2),
              "zscore.min_peers must be at least 2");
}

TEST(BenchCli, DefenseOptParseErrorsExitTwo) {
  EXPECT_EXIT(apply_opts("liteworp.alert_repeats"), testing::ExitedWithCode(2),
              "expected key=value");
  EXPECT_EXIT(apply_opts("liteworp.nope=1"), testing::ExitedWithCode(2),
              "--defense-opt: ");
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
