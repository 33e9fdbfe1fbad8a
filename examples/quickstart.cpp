// Quickstart: a 50-node sensor field, two colluders opening an out-of-band
// wormhole at t = 50 s, and LITEWORP detecting and isolating them.
#include <cstdio>
#include <iostream>
#include <string>

#include "scenario/runner.h"
#include "util/cli.h"

constexpr const char* kUsage =
    "usage: quickstart [--nodes=50] [--seed=3] [--duration=600]\n"
    "                  [--defense=liteworp|leash|zscore|none]\n"
    "                  [--mode=oob|encap|highpower|relay|rushing]\n"
    "                  [--malicious=2]";

namespace {

lw::attack::WormholeMode parse_mode(const std::string& name) {
  using lw::attack::WormholeMode;
  if (name == "oob") return WormholeMode::kOutOfBand;
  if (name == "encap") return WormholeMode::kEncapsulation;
  if (name == "highpower") return WormholeMode::kHighPower;
  if (name == "relay") return WormholeMode::kRelay;
  if (name == "rushing") return WormholeMode::kRushing;
  throw std::invalid_argument("unknown attack mode: " + name);
}

}  // namespace

static int run_example(lw::Config& args) {
  lw::scenario::ExperimentConfig config =
      lw::scenario::ExperimentConfig::table2_defaults();
  config.node_count = args.get_count("nodes", 50);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  config.duration = args.get_double("duration", 600.0);
  config.defense.name = args.get_string("defense", "liteworp");
  config.malicious_count =
      static_cast<std::size_t>(args.get_int("malicious", 2));
  config.attack.mode = parse_mode(args.get_string("mode", "oob"));
  lw::cli::reject_unknown(args);
  config.finalize();

  std::cout << "=== LITEWORP quickstart ===\n" << config.summary() << '\n';

  lw::scenario::RunResult result = lw::scenario::run_experiment(config);

  std::cout << "--- traffic ---\n"
            << "data packets originated : " << result.data_originated << '\n'
            << "data packets delivered  : " << result.data_delivered << '\n'
            << "dropped by wormhole     : " << result.data_dropped_malicious
            << "  (" << 100.0 * result.fraction_dropped() << "% of traffic)\n"
            << "dropped (no route)      : " << result.data_dropped_no_route
            << '\n'
            << "route discoveries       : " << result.discoveries << '\n'
            << "routes established      : " << result.routes_established
            << '\n'
            << "wormhole routes         : " << result.wormhole_routes << "  ("
            << 100.0 * result.fraction_wormhole_routes() << "%)\n"
            << "delivery latency        : " << result.mean_delivery_latency
            << " s mean, " << result.p95_delivery_latency << " s p95\n";

  std::cout << "--- defense ---\n"
            << "fabrication suspicions  : " << result.suspicions_fabrication
            << '\n'
            << "drop suspicions         : " << result.suspicions_drop << '\n'
            << "local detections        : " << result.local_detections << '\n'
            << "alerts sent             : "
            << result.defense_cost.control_messages << '\n'
            << "malicious isolated      : " << result.malicious_isolated
            << " / " << result.malicious_count << '\n'
            << "false isolations        : " << result.false_isolations << '\n';
  if (result.isolation_latency) {
    std::printf("isolation latency       : %.2f s after attack start\n",
                *result.isolation_latency);
  } else if (result.malicious_count > 0) {
    std::cout << "isolation latency       : (not completely isolated)\n";
  }

  std::cout << "--- channel ---\n"
            << "frames transmitted      : " << result.frames_transmitted
            << '\n'
            << "frames delivered        : " << result.frames_delivered << '\n'
            << "frames lost to collision: " << result.frames_collided << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "quickstart", kUsage, run_example);
}
