// Defense registry and configuration surface: every registered backend is
// constructible and tag-consistent, the "none" baseline is inert, and
// DefenseConfig::validate() / defense::set_option() reject bad input with
// actionable messages (one test per rejection).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "defense/defense.h"
#include "routing/routing.h"
#include "tests/liteworp/fake_env.h"

namespace lw::defense {
namespace {

/// validate() must throw std::invalid_argument whose message contains
/// `fragment` (the actionable part a user would grep for).
void expect_reject(const DefenseConfig& config, const std::string& fragment) {
  try {
    config.validate();
    FAIL() << "expected rejection mentioning '" << fragment << "'";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "got: " << error.what();
  }
}

/// Minimal wiring for constructing backends outside a scenario.
class MakeFixture : public ::testing::Test {
 protected:
  MakeFixture() : env_(0), routing_(env_, table_, {}) {}

  Wiring wiring() { return {env_, table_, routing_}; }

  test::FakeEnv env_;
  nbr::NeighborTable table_;
  routing::OnDemandRouting routing_;
};

// ---- Registry round-trip ----

TEST_F(MakeFixture, RegistryNamesAreKnownConstructibleAndTagConsistent) {
  const std::vector<std::string> names = registry();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_TRUE(known(name)) << name;
    DefenseConfig config;
    config.name = name;
    EXPECT_NO_THROW(config.validate()) << name;
    auto backend = make(config, wiring());
    ASSERT_NE(backend, nullptr) << name;
    // The backend's trace tag round-trips through the registry name.
    EXPECT_EQ(backend->tag(), tag_for(name)) << name;
    EXPECT_STREQ(backend->name(), name.c_str());
  }
}

TEST_F(MakeFixture, UnknownNameRejectedEverywhere) {
  EXPECT_FALSE(known("dtn"));
  EXPECT_THROW(tag_for("dtn"), std::invalid_argument);
  DefenseConfig config;
  config.name = "dtn";
  expect_reject(config, "unknown defense \"dtn\"");
  expect_reject(config, "registered: liteworp, leash, zscore, none");
  EXPECT_THROW(make(config, wiring()), std::invalid_argument);
}

// ---- The undefended baseline is a true no-op ----

TEST_F(MakeFixture, NoneBackendIsInert) {
  DefenseConfig config;
  config.name = "none";
  auto backend = make(config, wiring());
  pkt::Packet packet = env_.packet_factory().make(pkt::PacketType::kRouteRequest);
  packet.claimed_tx = 5;
  backend->observe(packet);
  EXPECT_TRUE(backend->admit(packet));
  backend->handle_alert(packet);
  backend->emit_false_alert(7);
  EXPECT_TRUE(env_.sent.empty()) << "the baseline must send nothing";
  const CostSnapshot cost = backend->cost();
  EXPECT_EQ(cost.frames_observed, 0u);
  EXPECT_EQ(cost.admission_checks, 0u);
  EXPECT_EQ(cost.control_messages, 0u);
  EXPECT_EQ(cost.storage_bytes, 0u);
  EXPECT_EQ(backend->admission_stats().accepted, 0u);
  EXPECT_EQ(backend->admission_stats().total_rejected(), 0u);
  EXPECT_EQ(cost.watch_entries, 0u);
  EXPECT_EQ(cost.peak_watch_entries, 0u);
}

// ---- validate(): one test per rejection ----

TEST(DefenseValidate, ChecksOnlyTheSelectedBackend) {
  DefenseConfig config;
  config.name = "leash";
  config.liteworp.detection_confidence = 0;  // broken but inactive
  config.zscore.z_threshold = -1.0;          // broken but inactive
  EXPECT_NO_THROW(config.validate());
}

TEST(DefenseValidate, LiteworpGammaBelowOne) {
  DefenseConfig config;
  config.liteworp.detection_confidence = 0;
  expect_reject(config,
                "liteworp.detection_confidence (gamma) must be at least 1");
}

TEST(DefenseValidate, LiteworpMalcThresholdNotPositive) {
  DefenseConfig config;
  config.liteworp.malc_threshold = 0.0;
  expect_reject(config, "liteworp.malc_threshold (C_t) must be positive");
}

TEST(DefenseValidate, LiteworpWatchTimeoutNotPositive) {
  DefenseConfig config;
  config.liteworp.watch_timeout = -1.0;
  expect_reject(config, "liteworp.watch_timeout (delta) must be positive");
}

TEST(DefenseValidate, LiteworpAlertRepeatsBelowOne) {
  DefenseConfig config;
  config.liteworp.alert_repeats = 0;
  expect_reject(config, "liteworp.alert_repeats must be at least 1");
}

TEST(DefenseValidate, ZScoreThresholdNotPositive) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.z_threshold = 0.0;
  expect_reject(config, "zscore.z_threshold must be positive");
}

TEST(DefenseValidate, ZScoreMinSamplesBelowOne) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.min_samples = 0;
  expect_reject(config, "zscore.min_samples must be at least 1");
}

TEST(DefenseValidate, ZScoreMinPeersBelowTwo) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.min_peers = 1;
  expect_reject(config, "zscore.min_peers must be at least 2");
}

TEST(DefenseValidate, ZScoreAnomalyRateOutsideUnitInterval) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.min_anomaly_rate = 1.5;
  expect_reject(config, "zscore.min_anomaly_rate must be within [0, 1]");
  config.zscore.min_anomaly_rate = -0.1;
  expect_reject(config, "zscore.min_anomaly_rate must be within [0, 1]");
}

TEST(DefenseValidate, ZScoreStdFloorNotPositive) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.std_floor = 0.0;
  expect_reject(config, "zscore.std_floor must be positive");
}

TEST(DefenseValidate, ZScoreGammaBelowOne) {
  DefenseConfig config;
  config.name = "zscore";
  config.zscore.detection_confidence = 0;
  expect_reject(config, "zscore.detection_confidence (gamma) must be at least 1");
}

// The five alert values are validated alike for both accusing backends.
DefenseConfig with_option(const std::string& backend, const std::string& key,
                          const std::string& value) {
  DefenseConfig config;
  config.name = backend;
  set_option(config, backend + "." + key, value);
  return config;
}

TEST(DefenseValidate, LiteworpAlertRepeatGapNegative) {
  expect_reject(with_option("liteworp", "alert_repeat_gap", "-1"),
                "liteworp.alert_repeat_gap must be non-negative");
  EXPECT_NO_THROW(with_option("liteworp", "alert_repeat_gap", "0").validate());
}

TEST(DefenseValidate, LiteworpAlertTtlOutsideByteRange) {
  expect_reject(with_option("liteworp", "alert_ttl", "-1"),
                "liteworp.alert_ttl must be within [0, 255]");
  expect_reject(with_option("liteworp", "alert_ttl", "256"),
                "liteworp.alert_ttl must be within [0, 255]");
  EXPECT_NO_THROW(with_option("liteworp", "alert_ttl", "255").validate());
}

TEST(DefenseValidate, LiteworpRealertIntervalNegative) {
  expect_reject(with_option("liteworp", "realert_interval", "-0.5"),
                "liteworp.realert_interval must be non-negative");
}

TEST(DefenseValidate, ZScoreAlertRepeatsBelowOne) {
  expect_reject(with_option("zscore", "alert_repeats", "0"),
                "zscore.alert_repeats must be at least 1");
}

TEST(DefenseValidate, ZScoreAlertRepeatGapNegative) {
  expect_reject(with_option("zscore", "alert_repeat_gap", "-1"),
                "zscore.alert_repeat_gap must be non-negative");
  expect_reject(with_option("zscore", "alert_repeat_gap", "nan"),
                "zscore.alert_repeat_gap must be non-negative");
}

TEST(DefenseValidate, ZScoreAlertTtlOutsideByteRange) {
  expect_reject(with_option("zscore", "alert_ttl", "-1"),
                "zscore.alert_ttl must be within [0, 255]");
  expect_reject(with_option("zscore", "alert_ttl", "256"),
                "zscore.alert_ttl must be within [0, 255]");
  EXPECT_NO_THROW(with_option("zscore", "alert_ttl", "0").validate());
}

TEST(DefenseValidate, ZScoreRealertIntervalNegative) {
  expect_reject(with_option("zscore", "realert_interval", "-0.5"),
                "zscore.realert_interval must be non-negative");
}

TEST(DefenseValidate, LeashSyncErrorNegative) {
  DefenseConfig config;
  config.name = "leash";
  config.leash.sync_error = -1e-6;
  expect_reject(config, "leash.sync_error must be non-negative");
}

TEST(DefenseValidate, LeashLocationErrorNegative) {
  DefenseConfig config;
  config.name = "leash";
  config.leash.location_error = -0.5;
  expect_reject(config, "leash.location_error must be non-negative");
}

TEST(DefenseValidate, LeashProcessingSlackNegative) {
  DefenseConfig config;
  config.name = "leash";
  config.leash.processing_slack = -1e-9;
  expect_reject(config, "leash.processing_slack must be non-negative");
}

// ---- set_option(): dotted CLI keys ----

TEST(DefenseSetOption, RoundTripsAcrossBackends) {
  DefenseConfig config;
  set_option(config, "liteworp.detection_confidence", "5");
  EXPECT_EQ(config.liteworp.detection_confidence, 5);
  set_option(config, "liteworp.malc_threshold", "36");
  EXPECT_DOUBLE_EQ(config.liteworp.malc_threshold, 36.0);
  set_option(config, "liteworp.strict_link_check", "false");
  EXPECT_FALSE(config.liteworp.strict_link_check);
  set_option(config, "zscore.z_threshold", "3.25");
  EXPECT_DOUBLE_EQ(config.zscore.z_threshold, 3.25);
  set_option(config, "zscore.min_peers", "4");
  EXPECT_EQ(config.zscore.min_peers, 4);
  set_option(config, "leash.sync_error", "1e-5");
  EXPECT_DOUBLE_EQ(config.leash.sync_error, 1e-5);
  set_option(config, "leash.mode", "geographical");
  EXPECT_EQ(config.leash.mode, leash::LeashMode::kGeographical);
  set_option(config, "leash.mode", "temporal");
  EXPECT_EQ(config.leash.mode, leash::LeashMode::kTemporal);
}

TEST(DefenseSetOption, UnknownKeyRejectedWithGuidance) {
  DefenseConfig config;
  try {
    set_option(config, "liteworp.gamma", "3");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unknown option"),
              std::string::npos)
        << error.what();
    // The message must teach the dotted-key convention.
    EXPECT_NE(std::string(error.what()).find("<backend>.<param>"),
              std::string::npos)
        << error.what();
  }
}

TEST(DefenseSetOption, UnparsableValuesRejected) {
  DefenseConfig config;
  EXPECT_THROW(set_option(config, "zscore.z_threshold", "high"),
               std::invalid_argument);
  EXPECT_THROW(set_option(config, "liteworp.detection_confidence", "3.5"),
               std::invalid_argument);
  EXPECT_THROW(set_option(config, "liteworp.strict_link_check", "maybe"),
               std::invalid_argument);
  EXPECT_THROW(set_option(config, "leash.mode", "chronological"),
               std::invalid_argument);
  // Failed sets must not half-apply.
  EXPECT_DOUBLE_EQ(config.zscore.z_threshold, ZScoreParams{}.z_threshold);
}

}  // namespace
}  // namespace lw::defense
