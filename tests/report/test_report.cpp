// report library: input normalization (bench rows + sweep JSON), metric
// classification, markdown rendering, A/B diff verdicts, and the
// BENCH_history.json append/check round trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report/report.h"
#include "util/json.h"

namespace lw::report {
namespace {

std::vector<CaseMetrics> cases_from(const std::string& json) {
  return parse_cases(util::JsonValue::parse(json));
}

const char kBenchRows[] = R"([
  {"case":"n50_clean","nodes":50,"frames_transmitted":1200,
   "queue_high_water":31,"frames_per_second":250000.5,"wall_seconds":0.8},
  {"case":"n50_collisions","nodes":50,"frames_transmitted":1500,
   "queue_high_water":40,"frames_per_second":240000.0,"wall_seconds":0.9}
])";

TEST(Report, ClassifiesWallMetricsByName) {
  EXPECT_TRUE(is_wall_metric("wall_seconds"));
  EXPECT_TRUE(is_wall_metric("cpu_seconds"));
  EXPECT_TRUE(is_wall_metric("frames_per_second"));
  EXPECT_TRUE(is_wall_metric("profile.self_seconds"));
  EXPECT_FALSE(is_wall_metric("frames_transmitted"));
  EXPECT_FALSE(is_wall_metric("queue_high_water"));
  EXPECT_FALSE(is_wall_metric("mem_slab_slots"));
}

TEST(Report, ParsesBenchRowArrays) {
  const auto cases = cases_from(kBenchRows);
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[0].name, "n50_clean");
  EXPECT_TRUE(cases[0].has("frames_transmitted"));
  EXPECT_DOUBLE_EQ(cases[0].get("frames_transmitted", 0.0), 1200.0);
  EXPECT_DOUBLE_EQ(cases[1].get("queue_high_water", 0.0), 40.0);
  // "case" itself is the name, not a metric.
  EXPECT_FALSE(cases[0].has("case"));
}

TEST(Report, ParsesSweepJson) {
  const auto cases = cases_from(R"({
    "points":[
      {"label":"baseline",
       "aggregate":{"runs":2,"data_delivered_mean":812.5},
       "counters":{"phy.tx":42000},
       "replicas":[
         {"seed":1,"series":{"queue_high_water":17,
          "memory_high_water":{"slab_slots":64,"watch_entries":120,
                               "neighbor_bytes":9000,
                               "defense_storage_bytes":4000}}},
         {"seed":2,"series":{"queue_high_water":21,
          "memory_high_water":{"slab_slots":80,"watch_entries":110,
                               "neighbor_bytes":9100,
                               "defense_storage_bytes":3900}}}
       ]}
    ]})");
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].name, "baseline");
  EXPECT_DOUBLE_EQ(cases[0].get("counter.phy.tx", 0.0), 42000.0);
  // Replica series roll up to the max across replicas.
  EXPECT_DOUBLE_EQ(cases[0].get("series.queue_high_water", 0.0), 21.0);
  EXPECT_DOUBLE_EQ(cases[0].get("series.mem_slab_slots", 0.0), 80.0);
  EXPECT_DOUBLE_EQ(cases[0].get("series.mem_watch_entries", 0.0), 120.0);
}

TEST(Report, RejectsUnknownShapes) {
  EXPECT_THROW(cases_from(R"("just a string")"), std::runtime_error);
  EXPECT_THROW(cases_from(R"({"no_points_here":1})"), std::runtime_error);
}

TEST(Report, RendersMarkdownWithWallMetricsSegregated) {
  const std::string md = render_markdown(cases_from(kBenchRows), "My title");
  EXPECT_NE(md.find("My title"), std::string::npos);
  EXPECT_NE(md.find("n50_clean"), std::string::npos);
  EXPECT_NE(md.find("frames_transmitted"), std::string::npos);
  EXPECT_NE(md.find("wall_seconds"), std::string::npos);
  // Deterministic metrics are listed before wall metrics within a case.
  const std::size_t det = md.find("frames_transmitted");
  const std::size_t wall = md.find("wall_seconds");
  EXPECT_LT(det, wall);
}

TEST(Report, DiffOfIdenticalRunsPasses) {
  const DiffReport diff =
      diff_cases(cases_from(kBenchRows), cases_from(kBenchRows), {});
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_NE(diff.markdown.find("0 regression"), std::string::npos);
}

TEST(Report, DeterministicMismatchIsDrift) {
  auto b = cases_from(kBenchRows);
  b[0].metrics[1].second += 1.0;  // frames_transmitted 1200 -> 1201
  const DiffReport diff = diff_cases(cases_from(kBenchRows), b, {});
  EXPECT_EQ(diff.regressions, 1);
  EXPECT_NE(diff.markdown.find("DRIFT"), std::string::npos);
  EXPECT_NE(diff.markdown.find("frames_transmitted"), std::string::npos);
}

TEST(Report, WallSlowdownBeyondToleranceIsRegression) {
  auto b = cases_from(kBenchRows);
  // wall_seconds 0.8 -> 1.2: a 50% slowdown, far past the 10% default.
  for (auto& [key, value] : b[0].metrics) {
    if (key == "wall_seconds") value = 1.2;
  }
  const DiffReport diff = diff_cases(cases_from(kBenchRows), b, {});
  EXPECT_EQ(diff.regressions, 1);
  EXPECT_NE(diff.markdown.find("REGRESSION"), std::string::npos);
}

TEST(Report, WallNoiseWithinToleranceAndSpeedupsPass) {
  auto b = cases_from(kBenchRows);
  for (auto& [key, value] : b[0].metrics) {
    if (key == "wall_seconds") value = 0.84;          // +5%: noise
    if (key == "frames_per_second") value = 400000.0;  // faster: fine
  }
  const DiffReport diff = diff_cases(cases_from(kBenchRows), b, {});
  EXPECT_EQ(diff.regressions, 0);
}

TEST(Report, LowerPerSecondIsASlowdown) {
  auto b = cases_from(kBenchRows);
  for (auto& [key, value] : b[0].metrics) {
    if (key == "frames_per_second") value = 100000.0;  // -60% throughput
  }
  const DiffReport diff = diff_cases(cases_from(kBenchRows), b, {});
  EXPECT_EQ(diff.regressions, 1);
}

TEST(Report, CasesInOnlyOneRunAreListedNotCounted) {
  auto a = cases_from(kBenchRows);
  auto b = cases_from(kBenchRows);
  b.pop_back();
  const DiffReport diff = diff_cases(a, b, {});
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_NE(diff.markdown.find("n50_collisions"), std::string::npos);
}

TEST(Report, HistoryAppendAndCheckRoundTrip) {
  const auto cases = cases_from(kBenchRows);
  const std::string history = history_append("", "pr7", cases);
  // The ledger stores deterministic metrics only: portable across machines.
  EXPECT_NE(history.find("\"pr7\""), std::string::npos);
  EXPECT_NE(history.find("frames_transmitted"), std::string::npos);
  EXPECT_EQ(history.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(history.find("frames_per_second"), std::string::npos);

  const HistoryCheck ok = history_check(history, cases);
  EXPECT_TRUE(ok.ok) << ok.message;
}

TEST(Report, HistoryRecordsHostileLabelsAndKeys) {
  // A quote, a backslash and control bytes in the entry label, a case name
  // and a metric key: the ledger stays valid JSON, reads back the same
  // strings, and the next check against it passes.
  const auto cases = cases_from(
      R"([{"case":"x\"y\\z","a\"b":1,"tab\there":2.5,"nl\nkey":3}])");
  const std::string label = "quote \" back\\slash\ttab\nnewline";
  const std::string history = history_append("", label, cases);
  for (char c : history) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }

  const util::JsonValue root = util::JsonValue::parse(history);
  const util::JsonValue& entry = root.find("entries")->items().at(0);
  EXPECT_EQ(entry.string_or("label", ""), label);
  const util::JsonValue& recorded = entry.find("cases")->items().at(0);
  EXPECT_EQ(recorded.string_or("case", ""), "x\"y\\z");
  EXPECT_EQ(recorded.number_or("a\"b", 0.0), 1.0);
  EXPECT_EQ(recorded.number_or("tab\there", 0.0), 2.5);
  EXPECT_EQ(recorded.number_or("nl\nkey", 0.0), 3.0);

  const HistoryCheck check = history_check(history, cases);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_NE(check.message.find("3 metric(s) compared, 0 drifted"),
            std::string::npos)
      << check.message;
  // Recording again re-serializes the existing entry byte for byte.
  const std::string twice = history_append(history, label, cases);
  EXPECT_EQ(twice.substr(0, history.size() - 2),
            history.substr(0, history.size() - 2));
}

TEST(Report, HistoryCheckFlagsDrift) {
  const auto cases = cases_from(kBenchRows);
  const std::string history = history_append("", "pr7", cases);
  auto drifted = cases;
  drifted[1].metrics[1].second += 5.0;  // frames_transmitted
  const HistoryCheck check = history_check(history, drifted);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.message.find("frames_transmitted"), std::string::npos);
}

TEST(Report, HistoryChecksAgainstNewestEntryOnly) {
  const auto old_cases = cases_from(kBenchRows);
  auto new_cases = old_cases;
  new_cases[0].metrics[1].second = 9999.0;  // frames_transmitted changed
  std::string history = history_append("", "old", old_cases);
  history = history_append(history, "new", new_cases);
  // Matches the newest entry: passes even though it differs from "old".
  EXPECT_TRUE(history_check(history, new_cases).ok);
  EXPECT_FALSE(history_check(history, old_cases).ok);
}

TEST(Report, HistoryTreatsNewCoverageAsPass) {
  const auto cases = cases_from(kBenchRows);
  const std::string history = history_append("", "pr7", cases);
  auto wider = cases;
  wider[0].metrics.push_back({"brand_new_metric", 7.0});
  wider.push_back({"n100_new_case", {{"frames_transmitted", 1.0}}});
  EXPECT_TRUE(history_check(history, wider).ok);
}

TEST(Report, HistoryAppendRejectsCorruptDocuments) {
  EXPECT_THROW(history_append("{not json", "x", {}), std::exception);
  EXPECT_THROW(history_append(R"({"entries":"wrong"})", "x", {}),
               std::exception);
}

TEST(Report, EmptyHistoryPassesCheck) {
  EXPECT_TRUE(history_check("", cases_from(kBenchRows)).ok);
}

}  // namespace
}  // namespace lw::report
