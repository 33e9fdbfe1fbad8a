// IncidentBuilder: folding monitor/attack events into labeled incidents,
// ground-truth cross-checking on real runs, and live-vs-offline agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/incident.h"
#include "forensics/trace_reader.h"
#include "obs/trace_writer.h"
#include "scenario/runner.h"
#include "util/json.h"

namespace lw::forensics {
namespace {

obs::Event mon_event(obs::EventKind kind, Time t, NodeId guard, NodeId accused,
                     double value = 0.0, std::uint8_t detail = 0) {
  obs::Event event;
  event.t = t;
  event.kind = kind;
  event.node = guard;
  event.peer = accused;
  event.value = value;
  event.detail = detail;
  return event;
}

obs::Event atk_event(obs::EventKind kind, Time t, NodeId actor) {
  obs::Event event;
  event.t = t;
  event.kind = kind;
  event.node = actor;
  return event;
}

TEST(IncidentBuilder, SuspicionAloneIsNotAnIncident) {
  IncidentBuilder builder;
  builder.on_event(mon_event(obs::EventKind::kMonSuspicion, 1.0, 2, 9, 1.0));
  EXPECT_TRUE(builder.build().empty());
}

TEST(IncidentBuilder, DetectionOpensALabeledIncident) {
  IncidentBuilder builder;
  builder.on_event(atk_event(obs::EventKind::kAtkSpawn, 0.0, 9));
  builder.on_event(atk_event(obs::EventKind::kAtkDrop, 5.0, 9));
  builder.on_event(mon_event(obs::EventKind::kMonSuspicion, 6.0, 2, 9, 1.0,
                             obs::kSuspicionDrop));
  builder.on_event(mon_event(obs::EventKind::kMonSuspicion, 7.0, 2, 9, 2.0,
                             obs::kSuspicionFabrication));
  builder.on_event(mon_event(obs::EventKind::kMonDetection, 8.0, 2, 9, 2.0));

  const std::vector<Incident> incidents = builder.build();
  ASSERT_EQ(incidents.size(), 1u);
  const Incident& inc = incidents.front();
  EXPECT_EQ(inc.accused, 9u);
  EXPECT_TRUE(inc.ground_truth_malicious);
  EXPECT_DOUBLE_EQ(inc.first_malicious_act, 5.0);
  EXPECT_DOUBLE_EQ(inc.first_suspicion, 6.0);
  EXPECT_DOUBLE_EQ(inc.first_detection, 8.0);
  EXPECT_EQ(inc.suspicions_drop, 1u);
  EXPECT_EQ(inc.suspicions_fabrication, 1u);
  EXPECT_EQ(inc.detections, 1u);
  EXPECT_DOUBLE_EQ(inc.peak_malc, 2.0);
  EXPECT_FALSE(inc.isolated());
  EXPECT_LT(inc.detection_latency(), 0.0) << "no isolation yet";
}

TEST(IncidentBuilder, IsolationLatencyAndDistinctGuards) {
  IncidentBuilder builder;
  builder.on_event(atk_event(obs::EventKind::kAtkTunnel, 50.0, 4));
  builder.on_event(mon_event(obs::EventKind::kMonDetection, 60.0, 1, 4));
  builder.on_event(mon_event(obs::EventKind::kMonAlert, 61.0, 1, 4));
  builder.on_event(mon_event(obs::EventKind::kMonAlert, 62.0, 7, 4));
  builder.on_event(mon_event(obs::EventKind::kMonAlert, 62.5, 7, 4));  // dup
  builder.on_event(mon_event(obs::EventKind::kMonAlert, 63.0, 3, 4));
  builder.on_event(mon_event(obs::EventKind::kMonIsolation, 64.0, 5, 4, 3.0));

  const std::vector<Incident> incidents = builder.build();
  ASSERT_EQ(incidents.size(), 1u);
  const Incident& inc = incidents.front();
  EXPECT_TRUE(inc.ground_truth_malicious);
  EXPECT_TRUE(inc.isolated());
  EXPECT_EQ(inc.alerts, 4u);
  EXPECT_EQ(inc.accusing_guards, (std::vector<NodeId>{1, 3, 7}));
  EXPECT_DOUBLE_EQ(inc.detection_latency(), 14.0);
}

TEST(IncidentBuilder, HonestAccusedIsAFalsePositive) {
  IncidentBuilder builder;
  builder.on_event(atk_event(obs::EventKind::kAtkSpawn, 0.0, 9));
  builder.on_event(mon_event(obs::EventKind::kMonDetection, 8.0, 2, 3));
  const std::vector<Incident> incidents = builder.build();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_FALSE(incidents.front().ground_truth_malicious);

  const ForensicsSummary summary = IncidentBuilder::summarize(incidents);
  EXPECT_EQ(summary.false_positives, 1u);
  EXPECT_EQ(summary.true_positives, 0u);
  EXPECT_DOUBLE_EQ(summary.precision(), 0.0);
}

// ---- End-to-end: labels vs ground truth on a real isolating run ----

scenario::ExperimentConfig forensic_config() {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = 99;
  config.duration = 600.0;
  config.malicious_count = 2;
  config.obs.trace = true;
  config.obs.forensics = true;
  return config;
}

TEST(IncidentJson, HostileRunLabelRoundTrips) {
  // A run label with a quote, a backslash, a tab and a newline goes
  // through the trace header, the reader and the incidents document
  // unchanged, and the document holds no raw control byte.
  const std::string label = "a\"b\\c\td\ne";
  std::ostringstream trace;
  trace << obs::run_header_line(label, 7);
  obs::TraceWriter writer(trace);
  writer.on_event(mon_event(obs::EventKind::kMonDetection, 8.0, 2, 9, 2.0));
  std::istringstream in(trace.str());
  const std::vector<RunIncidents> runs = fold_runs(read_trace(in));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].point, label);
  EXPECT_EQ(runs[0].seed, 7u);
  ASSERT_EQ(runs[0].incidents.size(), 1u);

  const std::string json = incidents_to_json(runs);
  for (char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
  }
  const util::JsonValue doc = util::JsonValue::parse(json);
  ASSERT_EQ(doc.items().size(), 1u);
  EXPECT_EQ(doc.items()[0].string_or("point", ""), label);
  const util::JsonValue& incident =
      doc.items()[0].find("incidents")->items().at(0);
  EXPECT_EQ(incident.number_or("accused", 0.0), 9.0);
  // The trace has no atk layer, so whether node 9 is malicious is unknown.
  EXPECT_EQ(incident.string_or("label", ""), "unknown");
}

TEST(IncidentJson, RunWithoutAtkSpawnHasUnknownGroundTruth) {
  // Two segments with the same accusation; only the second carries the
  // attack layer's ground truth.
  std::ostringstream trace;
  obs::TraceWriter writer(trace);
  trace << obs::run_header_line("mon-only", 1);
  writer.on_event(mon_event(obs::EventKind::kMonDetection, 8.0, 2, 9, 2.0));
  trace << obs::run_header_line("full", 1);
  writer.on_event(atk_event(obs::EventKind::kAtkSpawn, 0.0, 5));
  writer.on_event(mon_event(obs::EventKind::kMonDetection, 8.0, 2, 9, 2.0));
  std::istringstream in(trace.str());
  const std::vector<RunIncidents> runs = fold_runs(read_trace(in));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_FALSE(runs[0].ground_truth);
  EXPECT_TRUE(runs[1].ground_truth);

  const util::JsonValue doc = util::JsonValue::parse(incidents_to_json(runs));
  ASSERT_EQ(doc.items().size(), 2u);
  const util::JsonValue& unknown =
      doc.items()[0].find("incidents")->items().at(0);
  EXPECT_EQ(unknown.string_or("label", ""), "unknown");
  EXPECT_TRUE(unknown.find("malicious")->is_null());
  const util::JsonValue& labeled =
      doc.items()[1].find("incidents")->items().at(0);
  EXPECT_EQ(labeled.string_or("label", ""), "false");
  ASSERT_TRUE(labeled.find("malicious")->is_bool());
  EXPECT_FALSE(labeled.find("malicious")->as_bool());
}

TEST(ForensicsEndToEnd, IncidentLabelsMatchGroundTruthExactly) {
  scenario::Network network(forensic_config());
  network.run();

  const std::vector<NodeId>& truth = network.malicious_ids();
  const std::vector<Incident> incidents = network.incidents();
  ASSERT_FALSE(incidents.empty());

  // Zero mislabels: an incident is marked malicious exactly when the
  // accused is in the network's own attacker list.
  for (const Incident& inc : incidents) {
    const bool actually_malicious =
        std::find(truth.begin(), truth.end(), inc.accused) != truth.end();
    EXPECT_EQ(inc.ground_truth_malicious, actually_malicious)
        << "accused " << inc.accused;
  }

  // At this horizon the attackers are isolated; latency must be measured
  // from the first malicious act (after attack start), so it is positive
  // and within the run.
  const ForensicsSummary summary = network.forensics_summary();
  EXPECT_TRUE(summary.enabled);
  ASSERT_GT(summary.isolated_incidents, 0u) << "run too short to isolate";
  ASSERT_GT(summary.latency_samples, 0u);
  EXPECT_GT(summary.mean_detection_latency, 0.0);
  EXPECT_LT(summary.mean_detection_latency, forensic_config().duration);
  for (const Incident& inc : incidents) {
    if (!inc.isolated() || !inc.ground_truth_malicious) continue;
    EXPECT_GE(inc.first_malicious_act,
              forensic_config().attack.start_time);
    EXPECT_GT(static_cast<int>(inc.accusing_guards.size()), 0);
  }
}

TEST(ForensicsEndToEnd, OfflineFoldOfTraceMatchesLiveIncidents) {
  scenario::Network network(forensic_config());
  network.run();
  const std::vector<Incident> live = network.incidents();
  const std::string trace = network.trace_jsonl();
  ASSERT_FALSE(trace.empty());

  // Re-derive the incidents from nothing but the trace bytes, exactly the
  // way `lw-trace incidents` does.
  std::istringstream in(trace);
  IncidentBuilder offline;
  for (const TraceRecord& record : read_trace(in)) {
    if (!record.is_run_header && record.kind_known) {
      offline.on_event(record.to_event());
    }
  }
  const std::vector<Incident> replayed = offline.build();

  ASSERT_EQ(replayed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replayed[i].accused, live[i].accused);
    EXPECT_EQ(replayed[i].ground_truth_malicious,
              live[i].ground_truth_malicious);
    EXPECT_EQ(replayed[i].accusing_guards, live[i].accusing_guards);
    EXPECT_EQ(replayed[i].detections, live[i].detections);
    EXPECT_EQ(replayed[i].alerts, live[i].alerts);
    EXPECT_EQ(replayed[i].isolations, live[i].isolations);
    EXPECT_EQ(replayed[i].suspicions_fabrication,
              live[i].suspicions_fabrication);
    EXPECT_EQ(replayed[i].suspicions_drop, live[i].suspicions_drop);
    // Timestamps pass through the writer's %.9f formatting, so the offline
    // values are nanosecond-quantized.
    EXPECT_NEAR(replayed[i].first_malicious_act, live[i].first_malicious_act,
                1e-9);
    EXPECT_NEAR(replayed[i].first_isolation, live[i].first_isolation, 1e-9);
  }
}

TEST(ForensicsEndToEnd, RunResultCarriesTheSummary) {
  const scenario::RunResult result =
      scenario::run_experiment(forensic_config());
  EXPECT_TRUE(result.forensics.enabled);
  EXPECT_EQ(result.forensics.incidents, result.incidents.size());

  // Forensics off: summary disabled, incident list empty.
  auto off = forensic_config();
  off.obs.forensics = false;
  const scenario::RunResult plain = scenario::run_experiment(off);
  EXPECT_FALSE(plain.forensics.enabled);
  EXPECT_TRUE(plain.incidents.empty());
}

}  // namespace
}  // namespace lw::forensics
