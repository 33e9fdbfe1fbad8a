// SpanBuilder tests: the golden span fixture, cross-thread byte identity,
// and the contract between span trace lines and the SpanReport statistics.
//
// Regenerating the fixture after an intentional span-schema change:
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_span_builder
// then commit tests/forensics/golden_spans.jsonl with the code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "forensics/span.h"
#include "scenario/runner.h"
#include "scenario/sweep.h"

namespace lw::scenario {
namespace {

// The golden-trace scenario with span folding on: colluding attackers,
// route discovery, watch buffers, and isolations all occur, so every span
// kind except join_handshake (no late joiners here) opens.
ExperimentConfig span_config() {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = 99;
  config.duration = 150.0;
  config.malicious_count = 2;
  config.obs.trace = true;
  config.obs.counters = true;
  config.obs.spans = true;
  config.obs.trace_layers = obs::parse_layer_mask("nbr,route,mon,atk");
  return config;
}

std::string golden_path() {
  return std::string(LW_GOLDEN_DIR) + "/golden_spans.jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Only the span.begin/span.end lines of a JSONL trace (the fixture keeps
/// the span record itself, not the point events around it).
std::string span_lines(const std::string& trace) {
  std::istringstream in(trace);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"layer\":\"span\"") != std::string::npos) {
      out << line << "\n";
    }
  }
  return out.str();
}

TEST(SpanBuilder, GoldenSpanFixtureMatchesCheckedIn) {
  const RunResult result = run_experiment(span_config());
  ASSERT_FALSE(result.trace_jsonl.empty());
  const std::string spans = span_lines(result.trace_jsonl);
  ASSERT_FALSE(spans.empty());

  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << spans;
    GTEST_SKIP() << "fixture regenerated at " << golden_path();
  }

  const std::string expected = read_file(golden_path());
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << golden_path()
      << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(spans, expected)
      << "span schema changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
}

TEST(SpanBuilder, DisablingSpansLeavesTraceBytesUntouched) {
  // The acceptance bar for retrofitting spans under the trace: a run
  // without --spans must produce exactly the trace it produced before the
  // span layer existed (no SpanBuilder is even constructed).
  auto with = span_config();
  auto without = span_config();
  without.obs.spans = false;
  const RunResult a = run_experiment(with);
  const RunResult b = run_experiment(without);
  ASSERT_FALSE(b.trace_jsonl.empty());
  EXPECT_EQ(span_lines(b.trace_jsonl), "");
  // Stripping the span lines from the enabled run recovers the disabled
  // run byte for byte: span folding only ever inserts lines.
  std::istringstream in(a.trace_jsonl);
  std::ostringstream stripped;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"layer\":\"span\"") == std::string::npos) {
      stripped << line << "\n";
    }
  }
  EXPECT_EQ(stripped.str(), b.trace_jsonl);
}

TEST(SpanBuilder, ReportTalliesMatchTraceLines) {
  const RunResult result = run_experiment(span_config());
  const forensics::SpanReport& report = result.spans;
  ASSERT_TRUE(report.enabled);

  std::map<std::string, std::uint64_t> begins;
  std::map<std::string, std::uint64_t> terminal_ends;
  std::istringstream in(span_lines(result.trace_jsonl));
  std::string line;
  while (std::getline(in, line)) {
    const auto kind_at = line.find("\"span\":\"");
    ASSERT_NE(kind_at, std::string::npos) << line;
    const auto kind_start = kind_at + 8;
    const std::string kind =
        line.substr(kind_start, line.find('"', kind_start) - kind_start);
    if (line.find("\"event\":\"begin\"") != std::string::npos) {
      ++begins[kind];
    } else if (line.find("\"outcome\":\"open\"") == std::string::npos) {
      ++terminal_ends[kind];
    }
  }
  for (std::size_t i = 0; i < forensics::kSpanKindCount; ++i) {
    const auto kind = static_cast<forensics::SpanKind>(i);
    const auto& stats = report.kinds[i];
    EXPECT_EQ(stats.opened, begins[forensics::to_string(kind)])
        << forensics::to_string(kind);
    EXPECT_EQ(stats.closed, terminal_ends[forensics::to_string(kind)])
        << forensics::to_string(kind);
    EXPECT_EQ(stats.closed, stats.durations.size());
  }
  // The scenario exercises the core span kinds.
  EXPECT_GT(report.kinds[0].opened, 0u);  // route_session
  EXPECT_GT(report.kinds[1].opened, 0u);  // alert_round
  EXPECT_GT(report.kinds[2].opened, 0u);  // alibi_window
  EXPECT_GT(report.kinds[3].opened, 0u);  // tunnel_session
}

TEST(SpanBuilder, PhaseDecompositionTelescopes) {
  // The 150 s golden horizon ends before gamma corroboration completes;
  // the end-to-end horizon (600 s) isolates both colluders.
  auto config = span_config();
  config.duration = 600.0;
  config.obs.forensics = true;
  const RunResult result = run_experiment(config);
  const forensics::SpanReport& report = result.spans;
  ASSERT_TRUE(report.enabled);
  ASSERT_EQ(report.observe.count, report.corroborate.count);
  ASSERT_EQ(report.observe.count, report.isolate.count);
  ASSERT_GT(report.detection_latencies.size(), 0u);
  // Both colluders are isolated in this scenario with a complete timeline,
  // so every latency round decomposes and the sums telescope exactly.
  ASSERT_EQ(report.observe.count, report.detection_latencies.size());
  double latency_sum = 0.0;
  for (const double v : report.detection_latencies) latency_sum += v;
  EXPECT_NEAR(report.observe.sum + report.corroborate.sum +
                  report.isolate.sum,
              latency_sum, 1e-9);
  // Spans feed the same population as the forensic incident latencies.
  EXPECT_EQ(report.detection_latencies.size(),
            result.forensics.latency_samples);
  EXPECT_NEAR(latency_sum, result.forensics.mean_detection_latency *
                               static_cast<double>(
                                   result.forensics.latency_samples),
              1e-9);
}

TEST(SpanBuilder, ByteIdenticalAcrossSweepThreadCounts) {
  const auto run_with_threads = [](int threads) {
    SweepSpec spec;
    spec.base = span_config();
    spec.points.push_back({.label = "spans", .mutate = nullptr});
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
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << "replica " << i;
    EXPECT_EQ(forensics::spans_to_json(a.spans),
              forensics::spans_to_json(b.spans))
        << "replica " << i;
  }
  // The sweep JSON now embeds the spans object; it must stay identical too.
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

}  // namespace
}  // namespace lw::scenario
