// Tier-1 fault behavior: a crashed node is silent while down, re-enters
// through dynamic join on recovery (regaining first- and second-hop
// state, becoming guardable again), detection survives churn, framing
// below gamma never isolates, and corrupted frames die at HMAC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "forensics/check.h"
#include "forensics/trace_reader.h"
#include "scenario/network.h"
#include "scenario/runner.h"

namespace lw {
namespace {

scenario::ExperimentConfig base_config(std::uint64_t seed) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 25;
  config.seed = seed;
  config.duration = 250.0;
  config.malicious_count = 0;
  return config;
}

/// Crash node 3 over [40, 100) with fast neighbor aging so its peers
/// expire it while it is down and must re-authenticate it afterwards.
void add_crash(scenario::ExperimentConfig& config) {
  config.fault.crashes.push_back({.node = 3, .at = 40.0, .recover_at = 100.0});
  config.fault.neighbor_age_timeout = 30.0;
  config.fault.neighbor_age_sweep_interval = 5.0;
}

TEST(FaultRecovery, RecoveredNodeRegainsTwoHopNeighbors) {
  auto config = base_config(201);
  add_crash(config);
  config.finalize();
  config.validate();
  scenario::Network network(std::move(config));
  network.run();

  const scenario::Node& rebooted = network.node(3);
  EXPECT_TRUE(rebooted.alive());
  ASSERT_GT(rebooted.table().neighbor_count(), 0u)
      << "recovered node never re-authenticated anyone";
  // Second-hop knowledge came back too: the node holds the neighbor list
  // of at least one first-hop neighbor (the guard precondition).
  bool has_second_hop = false;
  for (NodeId peer : rebooted.table().neighbors()) {
    if (rebooted.table().has_list_of(peer)) has_second_hop = true;
  }
  EXPECT_TRUE(has_second_hop)
      << "recovered node has first hops but no second-hop lists";
  // The recovery-latency sample closed, and quickly (well inside the
  // 150 s the node was back up).
  ASSERT_EQ(rebooted.recovery_latencies().size(), 1u);
  EXPECT_GT(rebooted.recovery_latencies()[0], 0.0);
  EXPECT_LT(rebooted.recovery_latencies()[0], 100.0);
  EXPECT_EQ(network.recorder().count(obs::EventKind::kFltCrash), 1u);
  EXPECT_EQ(network.recorder().count(obs::EventKind::kFltRecover), 1u);
}

TEST(FaultRecovery, RecoveredNodeIsGuardableAgain) {
  auto config = base_config(202);
  add_crash(config);
  config.finalize();
  config.validate();
  scenario::Network network(std::move(config));
  network.run();

  // Some live graph neighbor re-admitted node 3 (so it can watch node 3's
  // links again), and the framing fault would pick guards for it once more.
  bool readmitted = false;
  for (NodeId peer : network.graph().neighbors(3)) {
    if (network.node(peer).table().is_active_neighbor(3)) readmitted = true;
  }
  EXPECT_TRUE(readmitted)
      << "no neighbor re-authenticated the recovered node";
  EXPECT_FALSE(network.framing_guards(3, 1).empty())
      << "recovered node has no eligible guards";
}

TEST(FaultRecovery, CrashedRadioIsSilentAndTracePassesLint) {
  auto config = base_config(203);
  add_crash(config);
  config.obs.trace = true;
  const int gamma = config.defense.liteworp.detection_confidence;
  config.finalize();
  config.validate();
  scenario::Network network(std::move(config));
  network.run();

  std::istringstream in(network.trace_jsonl());
  const auto records = forensics::read_trace(in);
  ASSERT_FALSE(records.empty());
  // The trace carries the fault ground truth...
  const auto crash_count = std::count_if(
      records.begin(), records.end(), [](const forensics::TraceRecord& r) {
        return r.kind_known && r.kind == obs::EventKind::kFltCrash;
      });
  EXPECT_EQ(crash_count, 1);
  // ...no transmission from node 3 inside its down window...
  for (const auto& record : records) {
    if (record.kind_known && record.kind == obs::EventKind::kPhyTx &&
        record.node == 3) {
      EXPECT_FALSE(record.t >= 40.0 && record.t < 100.0)
          << "crashed node transmitted at t=" << record.t;
    }
  }
  // ...and the full linter (including the crash-silence and gamma-defense
  // invariants) finds nothing to complain about.
  const auto issues = forensics::check_trace(records, {.gamma = gamma});
  for (const auto& issue : issues) {
    ADD_FAILURE() << "line " << issue.line << ": " << issue.message;
  }
}

TEST(FaultRecovery, WormholeSpawnedAfterRecoveryIsDetected) {
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 50;
  config.seed = 204;
  config.duration = 600.0;
  config.malicious_count = 2;
  config.attack.start_time = 120.0;
  config.finalize();

  // Learn the seed's attacker ids from a fault-free twin (the pick
  // depends only on seed and topology config), then crash an honest node
  // through the pre-attack window.
  NodeId honest = kInvalidNode;
  {
    scenario::Network probe(config);
    for (NodeId id = 0; id < static_cast<NodeId>(config.node_count); ++id) {
      const auto& bad = probe.malicious_ids();
      if (std::find(bad.begin(), bad.end(), id) == bad.end()) {
        honest = id;
        break;
      }
    }
  }
  ASSERT_NE(honest, kInvalidNode);
  config.fault.crashes.push_back(
      {.node = honest, .at = 30.0, .recover_at = 70.0});
  config.fault.neighbor_age_timeout = 30.0;
  config.fault.neighbor_age_sweep_interval = 5.0;

  auto result = scenario::run_experiment(config);
  EXPECT_EQ(result.nodes_crashed, 1u);
  EXPECT_EQ(result.nodes_recovered, 1u);
  EXPECT_EQ(result.malicious_isolated, 2u)
      << "wormhole spawned after the churn settled must still be caught";
  EXPECT_EQ(result.false_isolations, 0u);
}

/// First node with at least `wanted` eligible (honest, alive, deployed)
/// guards in a fault-free twin of `config` — so the framing tests target
/// a victim whose neighborhood can actually carry the collusion.
NodeId pick_victim(scenario::ExperimentConfig config, std::size_t wanted) {
  config.fault = {};
  config.finalize();
  config.validate();
  scenario::Network probe(std::move(config));
  for (NodeId id = 0; id < static_cast<NodeId>(probe.size()); ++id) {
    if (probe.framing_guards(id, wanted).size() >= wanted) return id;
  }
  return kInvalidNode;
}

TEST(FaultFraming, BelowGammaNeverIsolates) {
  auto config = base_config(205);
  const auto gamma =
      static_cast<std::size_t>(config.defense.liteworp.detection_confidence);
  ASSERT_GE(gamma, 2u);
  const NodeId victim = pick_victim(config, gamma + 2);
  ASSERT_NE(victim, kInvalidNode);
  // Frame well after discovery settles: the compromised guards need the
  // victim's neighbor list to mint verifiable per-recipient alerts.
  config.fault.framings.push_back(
      {.victim = victim, .guards = gamma - 1, .start = 120.0});
  config.obs.forensics = true;

  auto result = scenario::run_experiment(config);
  EXPECT_GE(result.forensics.framed_accusations, 1u)
      << "the compromised guards never got an accusation on record";
  EXPECT_EQ(result.forensics.framed_isolations, 0u);
  EXPECT_EQ(result.false_isolations, 0u)
      << "fewer than gamma framers must never isolate anyone";
}

TEST(FaultFraming, AtOrAboveGammaCanIsolateTheVictim) {
  auto config = base_config(206);
  const auto gamma =
      static_cast<std::size_t>(config.defense.liteworp.detection_confidence);
  // gamma+1 framers: even a compromised guard hears gamma *other* guards,
  // so somebody in the neighborhood must cross the bar.
  const NodeId victim = pick_victim(config, gamma + 2);
  ASSERT_NE(victim, kInvalidNode);
  config.fault.framings.push_back(
      {.victim = victim, .guards = gamma + 1, .start = 120.0});
  config.obs.forensics = true;

  auto result = scenario::run_experiment(config);
  EXPECT_GT(result.false_isolations, 0u)
      << "gamma+1 colluding guards should overwhelm the threshold";
  EXPECT_GE(result.forensics.framed_isolations, 1u);
  // Forensics labels the incident as framed, not as an organic false
  // positive or a true detection.
  bool framed_incident = false;
  for (const auto& incident : result.incidents) {
    if (incident.accused == victim &&
        std::string(incident.label()) == "framed") {
      framed_incident = true;
      EXPECT_GE(incident.framers.size(), gamma);
    }
  }
  EXPECT_TRUE(framed_incident);
}

TEST(FaultCorruption, CorruptedFramesDieAtHmacNotInParsers) {
  auto config = base_config(207);
  config.fault.corruptions.push_back(
      {.node = 4, .from = 10.0, .until = 240.0, .probability = 1.0});

  // Every frame arriving at node 4 is corrupted for nearly the whole run:
  // the run must complete (no parser crash), convict nobody, and the rest
  // of the network keeps moving data.
  auto result = scenario::run_experiment(config);
  EXPECT_EQ(result.false_isolations, 0u);
  EXPECT_GT(result.data_originated, 0u);
  EXPECT_GT(result.data_delivered, 0u);
}

// Pins the fault path byte for byte: one plan with every fault kind (a
// crash and its recovery, a link outage, a 2-guard framing and a
// corruption window), its flt and mon trace lines against a checked-in
// fixture, and the run's fault outputs. Regenerate after an intentional
// change with
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_fault_recovery
// and commit tests/fault/golden_fault_trace.jsonl with the code change.
TEST(FaultPlanGolden, TraceAndCountsMatchFixture) {
  auto config = base_config(208);
  config.duration = 130.0;
  // Sparse traffic keeps the fixture small (the mon layer's watch lines
  // scale with route discoveries).
  config.traffic.data_rate = 1.0 / 100.0;
  config.fault.crashes.push_back({.node = 3, .at = 40.0, .recover_at = 70.0});
  config.fault.neighbor_age_timeout = 20.0;
  config.fault.neighbor_age_sweep_interval = 5.0;
  // Node 3, back from its crash, is one of the two framers.
  const NodeId victim = pick_victim(config, 2);
  ASSERT_EQ(victim, 0u);
  config.fault.links.push_back(
      {.a = 10, .b = 15, .from = 50.0, .until = 80.0, .extra_loss = 1.0});
  config.fault.framings.push_back(
      {.victim = victim, .guards = 2, .start = 85.0});
  config.fault.corruptions.push_back(
      {.node = 6, .from = 95.0, .until = 125.0, .probability = 0.5});
  config.obs.trace = true;
  config.obs.trace_layers = obs::parse_layer_mask("flt,mon");
  config.obs.forensics = true;

  const auto result = scenario::run_experiment(config);
  EXPECT_EQ(result.nodes_crashed, 1u);
  EXPECT_EQ(result.nodes_recovered, 1u);
  EXPECT_EQ(result.forensics.framed_accusations, 1u);
  EXPECT_EQ(result.forensics.framed_isolations, 0u);

  const std::string path =
      std::string(LW_GOLDEN_DIR) + "/golden_fault_trace.jsonl";
  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << result.trace_jsonl;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << "missing fixture " << path << " — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(result.trace_jsonl, expected.str())
      << "fault trace changed; if intentional, regenerate with "
         "LW_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace lw
