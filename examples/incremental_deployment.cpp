// Incremental deployment: a live LITEWORP network absorbs late-deployed
// nodes through the dynamic challenge-response join (Sections 4.1 / 7),
// then survives a wormhole opened after the network has grown.
#include <cstdio>

#include "scenario/network.h"
#include "util/cli.h"

constexpr const char* kUsage =
    "usage: incremental_deployment [--nodes=40] [--joiners=3]\n"
    "                              [--join_time=80] [--seed=51]\n"
    "                              [--duration=500]";

static int run_example(lw::Config& args) {
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  config.node_count = args.get_count("nodes", 40);
  config.late_joiners = static_cast<std::size_t>(args.get_int("joiners", 3));
  config.late_join_time = args.get_double("join_time", 80.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 51));
  config.duration = args.get_double("duration", 500.0);
  lw::cli::reject_unknown(args);
  config.malicious_count = 2;
  config.attack.start_time =
      config.late_join_time +
      static_cast<double>(config.late_joiners) * config.late_join_stagger +
      40.0;
  config.finalize();

  lw::scenario::Network net(config);
  std::printf("initial deployment: %zu nodes; %zu joiners at t = %.0f s "
              "(staggered %.0f s); wormhole at t = %.0f s\n\n",
              config.node_count, config.late_joiners, config.late_join_time,
              config.late_join_stagger, config.attack.start_time);

  // Phase 1: the initial network settles.
  net.run_until(config.late_join_time - 1.0);
  const lw::obs::Recorder& events = net.recorder();
  std::printf("[t=%6.1f] initial network: %llu routes, %llu data delivered\n",
              net.simulator().now(),
              static_cast<unsigned long long>(
                  events.count(lw::obs::EventKind::kRouteEstablished)),
              static_cast<unsigned long long>(
                  events.count(lw::obs::EventKind::kRouteDeliver)));

  // Phase 2: the joiners arrive.
  const double settled = config.late_join_time +
                         static_cast<double>(config.late_joiners) *
                             config.late_join_stagger +
                         30.0;
  net.run_until(settled);
  for (std::size_t j = 0; j < config.late_joiners; ++j) {
    const lw::NodeId joiner =
        static_cast<lw::NodeId>(config.node_count + j);
    const auto& table = net.node(joiner).table();
    std::printf("[t=%6.1f] joiner %u: %zu/%zu neighbors discovered, "
                "%zu second-hop lists\n",
                net.simulator().now(), joiner, table.neighbor_count(),
                net.graph().neighbors(joiner).size(),
                table.neighbor_count());
  }

  // Phase 3: the wormhole opens against the grown network.
  net.run();
  const auto& m = net.metrics();
  std::printf("\n[t=%6.1f] final: %llu data delivered, %llu eaten by the "
              "wormhole, %zu/%zu attackers isolated, %llu false isolations\n",
              net.simulator().now(),
              static_cast<unsigned long long>(
                  events.count(lw::obs::EventKind::kRouteDeliver)),
              static_cast<unsigned long long>(
                  events.count(lw::obs::EventKind::kAtkDrop)),
              m.malicious_isolated_count(), net.malicious_ids().size(),
              static_cast<unsigned long long>(
                  m.accusations().false_isolations));
  for (const auto& record : m.isolation()) {
    if (record.complete) {
      std::printf("  attacker %u isolated at t = %.1f s "
                  "(%zu neighbors revoked it)\n",
                  record.node, *record.complete, record.revoked);
    }
  }
  std::puts("\nThe joiners participate as full citizens: they route, they"
            "\nguard their neighbors' links, and they receive alerts.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "incremental_deployment", kUsage,
                      run_example);
}
