#include "defense/defense.h"

#include <stdexcept>

#include "defense/zscore.h"

namespace lw::defense {

namespace {

// ---- Packet-leash backend: pure receiver-side drop filter; never
// identifies or isolates anyone (the paper's Section 2 comparator). ----
class LeashDefense final : public Defense {
 public:
  LeashDefense(const DefenseConfig& config, const Wiring& wiring)
      : env_(wiring.env), checker_(config.leash) {}

  obs::DefenseTag tag() const override { return obs::DefenseTag::kLeash; }
  void set_own_position(double x, double y) override {
    checker_.set_own_position(x, y);
  }

  bool admit(const pkt::Packet& packet) override {
    return checker_.check(packet, env_.now());
  }

  CostSnapshot cost() const override {
    return {.admission_checks = checker_.stats().checked,
            .admission_rejects = checker_.stats().rejected};
  }

 private:
  node::NodeEnv& env_;
  leash::LeashChecker checker_;
};

// ---- Undefended baseline: every hook is the base-class no-op. ----
class NoneDefense final : public Defense {
 public:
  obs::DefenseTag tag() const override { return obs::DefenseTag::kNone; }
};

constexpr const char* kRegistry[] = {"liteworp", "leash", "zscore", "none"};

std::string registry_list() {
  std::string out;
  for (const char* name : kRegistry) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("DefenseConfig: " + what);
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    reject("option " + key + ": '" + value + "' is not a number");
  }
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    reject("option " + key + ": '" + value + "' is not an integer");
  }
}

/// The alert values shared by the accusing backends, checked once for
/// whichever of them is selected. The negated comparisons reject NaN too.
void validate_alerts(const std::string& backend, const lite::AlertParams& a) {
  if (a.detection_confidence < 1) {
    reject(backend + ".detection_confidence (gamma) must be at least 1");
  }
  if (a.alert_repeats < 1) {
    reject(backend + ".alert_repeats must be at least 1");
  }
  if (!(a.alert_repeat_gap >= 0.0)) {
    reject(backend + ".alert_repeat_gap must be non-negative");
  }
  if (a.alert_ttl < 0 || a.alert_ttl > 255) {
    reject(backend + ".alert_ttl must be within [0, 255]");
  }
  if (!(a.realert_interval >= 0.0)) {
    reject(backend + ".realert_interval must be non-negative");
  }
}

/// Sets one of the five shared alert values from `param`, the key past its
/// "<backend>." prefix; false when `param` names none of them.
bool set_alert_option(lite::AlertParams& a, const std::string& key,
                      const std::string& param, const std::string& value) {
  if (param == "detection_confidence") {
    a.detection_confidence = parse_int(key, value);
  } else if (param == "alert_repeats") {
    a.alert_repeats = parse_int(key, value);
  } else if (param == "alert_repeat_gap") {
    a.alert_repeat_gap = parse_double(key, value);
  } else if (param == "alert_ttl") {
    a.alert_ttl = parse_int(key, value);
  } else if (param == "realert_interval") {
    a.realert_interval = parse_double(key, value);
  } else {
    return false;
  }
  return true;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  reject("option " + key + ": '" + value + "' is not a boolean");
}

}  // namespace

std::vector<std::string> registry() {
  return {std::begin(kRegistry), std::end(kRegistry)};
}

bool known(const std::string& name) {
  for (const char* candidate : kRegistry) {
    if (name == candidate) return true;
  }
  return false;
}

obs::DefenseTag tag_for(const std::string& name) {
  obs::DefenseTag tag;
  if (!obs::parse_defense_tag(name, &tag)) {
    reject("unknown defense \"" + name + "\" (registered: " +
           registry_list() + ")");
  }
  return tag;
}

void DefenseConfig::validate() const {
  if (!known(name)) {
    reject("unknown defense \"" + name + "\" (registered: " +
           registry_list() + ")");
  }
  if (name == "liteworp") {
    validate_alerts(name, liteworp);
    if (liteworp.malc_threshold <= 0.0) {
      reject("liteworp.malc_threshold (C_t) must be positive");
    }
    if (liteworp.watch_timeout <= 0.0) {
      reject("liteworp.watch_timeout (delta) must be positive");
    }
  } else if (name == "zscore") {
    validate_alerts(name, zscore);
    if (zscore.z_threshold <= 0.0) {
      reject("zscore.z_threshold must be positive");
    }
    if (zscore.min_samples < 1) {
      reject("zscore.min_samples must be at least 1");
    }
    if (zscore.min_peers < 2) {
      reject(
          "zscore.min_peers must be at least 2 (a z-score needs a peer "
          "baseline)");
    }
    if (zscore.min_anomaly_rate < 0.0 || zscore.min_anomaly_rate > 1.0) {
      reject("zscore.min_anomaly_rate must be within [0, 1]");
    }
    if (zscore.std_floor <= 0.0) {
      reject("zscore.std_floor must be positive");
    }
  } else if (name == "leash") {
    if (leash.sync_error < 0.0) {
      reject("leash.sync_error must be non-negative");
    }
    if (leash.location_error < 0.0) {
      reject("leash.location_error must be non-negative");
    }
    if (leash.processing_slack < 0.0) {
      reject("leash.processing_slack must be non-negative");
    }
  }
}

void set_option(DefenseConfig& config, const std::string& key,
                const std::string& value) {
  lite::LiteworpParams& lw = config.liteworp;
  leash::LeashParams& ls = config.leash;
  ZScoreParams& zs = config.zscore;
  // The five alert keys read the same under either accusing backend.
  const std::string param = key.substr(key.find('.') + 1);
  lite::AlertParams* alerts = nullptr;
  if (key == "liteworp." + param) alerts = &lw;
  if (key == "zscore." + param) alerts = &zs;
  if (alerts != nullptr && set_alert_option(*alerts, key, param, value)) return;
  if (key == "liteworp.watch_timeout") {
    lw.watch_timeout = parse_double(key, value);
  } else if (key == "liteworp.transmit_record_ttl") {
    lw.transmit_record_ttl = parse_double(key, value);
  } else if (key == "liteworp.malc_fabrication") {
    lw.malc_fabrication = parse_double(key, value);
  } else if (key == "liteworp.malc_drop") {
    lw.malc_drop = parse_double(key, value);
  } else if (key == "liteworp.malc_threshold") {
    lw.malc_threshold = parse_double(key, value);
  } else if (key == "liteworp.corroborated_threshold") {
    lw.corroborated_threshold = parse_double(key, value);
  } else if (key == "liteworp.window_packets") {
    lw.window_packets = parse_int(key, value);
  } else if (key == "liteworp.strict_link_check") {
    lw.strict_link_check = parse_bool(key, value);
  } else if (key == "leash.mode") {
    if (value == "temporal") {
      ls.mode = leash::LeashMode::kTemporal;
    } else if (value == "geographical") {
      ls.mode = leash::LeashMode::kGeographical;
    } else {
      reject("option " + key + ": '" + value +
             "' (expected temporal or geographical)");
    }
  } else if (key == "leash.location_error") {
    ls.location_error = parse_double(key, value);
  } else if (key == "leash.sync_error") {
    ls.sync_error = parse_double(key, value);
  } else if (key == "leash.processing_slack") {
    ls.processing_slack = parse_double(key, value);
  } else if (key == "zscore.z_threshold") {
    zs.z_threshold = parse_double(key, value);
  } else if (key == "zscore.min_samples") {
    zs.min_samples = parse_int(key, value);
  } else if (key == "zscore.min_peers") {
    zs.min_peers = parse_int(key, value);
  } else if (key == "zscore.min_anomaly_rate") {
    zs.min_anomaly_rate = parse_double(key, value);
  } else if (key == "zscore.std_floor") {
    zs.std_floor = parse_double(key, value);
  } else if (key == "zscore.transmit_record_ttl") {
    zs.transmit_record_ttl = parse_double(key, value);
  } else {
    reject("unknown option \"" + key +
           "\" (use <backend>.<param>, e.g. liteworp.detection_confidence, "
           "zscore.z_threshold, leash.mode)");
  }
}

std::unique_ptr<Defense> make(const DefenseConfig& config,
                              const Wiring& wiring) {
  if (config.name == "liteworp") {
    return std::make_unique<lite::LocalMonitor>(wiring.env, wiring.table,
                                                wiring.routing,
                                                config.liteworp);
  }
  if (config.name == "leash") {
    return std::make_unique<LeashDefense>(config, wiring);
  }
  if (config.name == "zscore") {
    return std::make_unique<ZScoreDefense>(config, wiring);
  }
  if (config.name == "none") {
    return std::make_unique<NoneDefense>();
  }
  reject("unknown defense \"" + config.name + "\" (registered: " +
         registry_list() + ")");
}

}  // namespace lw::defense
