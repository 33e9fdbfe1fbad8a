// Span/forensics ground-truth agreement plus invariant-8 unit coverage.
//
// The load-bearing claim: every isolation incident the forensic folder
// labels has exactly one enclosing alert-round span in the trace — the
// span layer and the incident layer agree on what a detection was.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/check.h"
#include "forensics/trace_reader.h"
#include "scenario/runner.h"

namespace lw::forensics {
namespace {

lw::scenario::ExperimentConfig span_config() {
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = 99;
  // Long enough for gamma corroboration to isolate both colluders.
  config.duration = 600.0;
  config.malicious_count = 2;
  config.obs.trace = true;
  config.obs.counters = true;
  config.obs.spans = true;
  config.obs.forensics = true;
  config.obs.trace_layers = lw::obs::parse_layer_mask("nbr,route,mon,atk");
  return config;
}

std::vector<TraceRecord> parse_all(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

TEST(SpanEnclosure, EveryIsolationIncidentHasExactlyOneAlertRound) {
  const lw::scenario::RunResult result =
      lw::scenario::run_experiment(span_config());
  ASSERT_FALSE(result.trace_jsonl.empty());
  const std::vector<TraceRecord> records = parse_all(result.trace_jsonl);

  // Alert-round spans by accused (the span's node is the accused), and the
  // monitor events that are allowed to open one.
  std::map<NodeId, int> rounds;
  std::map<NodeId, int> monitor_mentions;
  for (const TraceRecord& r : records) {
    if (r.is_span && r.name() == "begin" && r.span_kind() == "alert_round") {
      ++rounds[r.node];
    }
    if (!r.is_span && r.kind_known &&
        (r.kind == lw::obs::EventKind::kMonSuspicion ||
         r.kind == lw::obs::EventKind::kMonDetection ||
         r.kind == lw::obs::EventKind::kMonAlert)) {
      ++monitor_mentions[r.peer];
    }
  }
  // Forensic incidents that reached isolation.
  ASSERT_FALSE(result.incidents.empty());
  int isolated = 0;
  for (const auto& incident : result.incidents) {
    if (!incident.isolated()) continue;
    ++isolated;
    EXPECT_EQ(rounds[incident.accused], 1)
        << "accused " << incident.accused
        << " must have exactly one enclosing alert-round span";
  }
  ASSERT_GT(isolated, 0) << "scenario must isolate its colluders";
  // Rounds open at first *suspicion* (earlier than the forensic labeling
  // bar, which needs a local detection) — but never without any monitor
  // event naming the accused, and never twice.
  for (const auto& [accused, count] : rounds) {
    EXPECT_EQ(count, 1) << "accused " << accused;
    EXPECT_GT(monitor_mentions[accused], 0)
        << "alert round without a monitor event naming accused " << accused;
  }
}

TEST(SpanEnclosure, TraceWithSpansPassesTheLinter) {
  const lw::scenario::RunResult result =
      lw::scenario::run_experiment(span_config());
  const std::vector<CheckIssue> issues =
      check_trace(parse_all(result.trace_jsonl));
  for (const CheckIssue& issue : issues) {
    ADD_FAILURE() << "line " << issue.line << ": " << issue.message;
  }
}

// ---- Invariant 8 unit tests on hand-written traces ----

std::vector<CheckIssue> lint(const std::string& text) {
  return check_trace(parse_all(text));
}

TEST(SpanBalance, BalancedNestedSpansPass) {
  EXPECT_TRUE(lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
                   "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
                   "{\"t\":1.5,\"layer\":\"span\",\"event\":\"begin\","
                   "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,"
                   "\"parent\":1}\n"
                   "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
                   "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,"
                   "\"dur\":0.5,\"outcome\":\"cleared\"}\n"
                   "{\"t\":3.0,\"layer\":\"span\",\"event\":\"end\","
                   "\"span\":\"route_session\",\"sid\":1,\"node\":3,"
                   "\"dur\":2.0,\"outcome\":\"established\"}\n")
                  .empty());
}

TEST(SpanBalance, FlagsEndWithoutBegin) {
  const auto issues =
      lint("{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"route_session\",\"sid\":7,\"node\":3,"
           "\"dur\":1.0,\"outcome\":\"established\"}\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("without an open span.begin"),
            std::string::npos);
}

TEST(SpanBalance, FlagsBeginWithoutEnd) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("no matching span.end"),
            std::string::npos);
}

TEST(SpanBalance, FlagsDuplicateSid) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
           "{\"t\":1.5,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":4}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3,"
           "\"dur\":1.0,\"outcome\":\"established\"}\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("duplicate span sid"), std::string::npos);
}

TEST(SpanBalance, FlagsUnknownSpanKind) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"coffee_break\",\"sid\":1,\"node\":3}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"coffee_break\",\"sid\":1,\"node\":3,"
           "\"dur\":1.0,\"outcome\":\"established\"}\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("unknown span kind"), std::string::npos);
}

TEST(SpanBalance, FlagsParentNotOpen) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,\"parent\":1}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,"
           "\"dur\":1.0,\"outcome\":\"cleared\"}\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("that is not open"), std::string::npos);
}

TEST(SpanBalance, FlagsParentEndingBeforeChild) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
           "{\"t\":1.5,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,\"parent\":1}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3,"
           "\"dur\":1.0,\"outcome\":\"established\"}\n"
           "{\"t\":3.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"alibi_window\",\"sid\":2,\"node\":4,"
           "\"dur\":1.5,\"outcome\":\"cleared\"}\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("still open (not enclosed)"),
            std::string::npos);
}

TEST(SpanBalance, FlagsDurationMismatch) {
  const auto issues =
      lint("{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3,"
           "\"dur\":5.0,\"outcome\":\"established\"}\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("does not match"), std::string::npos);
}

TEST(SpanBalance, RunHeaderFlagsDanglingSpans) {
  const auto issues =
      lint("{\"run\":{\"point\":\"a\",\"seed\":1}}\n"
           "{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
           "{\"run\":{\"point\":\"b\",\"seed\":2}}\n"
           "{\"t\":1.0,\"layer\":\"span\",\"event\":\"begin\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3}\n"
           "{\"t\":2.0,\"layer\":\"span\",\"event\":\"end\","
           "\"span\":\"route_session\",\"sid\":1,\"node\":3,"
           "\"dur\":1.0,\"outcome\":\"established\"}\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 2u);
  EXPECT_NE(issues[0].message.find("no matching span.end"),
            std::string::npos);
}

}  // namespace
}  // namespace lw::forensics
