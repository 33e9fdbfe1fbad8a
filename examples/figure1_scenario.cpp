// The paper's Figure 1 / Figure 2 scenario, reproduced literally.
//
// A wants a route to B. The honest path is the chain A-C-D-E-B (four
// hops). Malicious X sits next to A and colluding Y next to B; X tunnels
// A's route request to Y, which replays it locally, so B sees an
// apparently three-hop route A-X-Y-B and prefers it — even though X and Y
// are far apart. With LITEWORP, the guards around Y catch the replay.
#include <cstdio>
#include <string>

#include "scenario/network.h"
#include "util/cli.h"

constexpr const char* kUsage =
    "usage: figure1_scenario [--mode=encap|oob] [--liteworp=true]";

static int run_example(lw::Config& args) {
  const bool liteworp = args.get_bool("liteworp", true);
  const std::string mode_name = args.get_string("mode", "oob");
  lw::cli::reject_unknown(args);

  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  // Hand-built geometry (range 30 m). The honest chain runs along y = 0;
  // X and Y hover near its two ends. The relay chain U-V-W-Z of Figure 1
  // exists implicitly in encapsulation mode through the tunnel delay.
  //
  //   ids: 0=A  1=C  2=D  3=E  4=B  5=X  6=Y  7..9 = side nodes (guards)
  config.positions = std::vector<lw::topo::Position>{
      {0, 0},     // A
      {25, 0},    // C
      {50, 0},    // D
      {75, 0},    // E
      {100, 0},   // B
      {10, 20},   // X  (hears A)
      {90, 20},   // Y  (hears B)
      {20, 35},   // guard of A/X neighborhood... also near X
      {80, 35},   // guard near Y and B
      {95, 40},   // second guard near Y
  };
  config.node_count = 10;
  config.malicious_nodes = {5, 6};  // X and Y
  config.malicious_count = 2;
  config.attack.mode = mode_name == "encap"
                           ? lw::attack::WormholeMode::kEncapsulation
                           : lw::attack::WormholeMode::kOutOfBand;
  config.attack.start_time = 30.0;
  // Light background chatter: a single flow yields a single fabricated
  // REQ — one data point — while guards need a pattern (6 of 7 watched
  // packets) before accusing. Recurring discoveries supply it, exactly as
  // the paper's full workload does.
  config.traffic.data_rate = 1.0 / 15.0;
  config.traffic.destination_change_rate = 1.0 / 60.0;
  config.defense.name = liteworp ? "liteworp" : "none";
  config.defense.liteworp.detection_confidence = 2;  // tiny field, few guards
  config.duration = 300.0;
  config.finalize();

  lw::scenario::Network net(config);
  std::printf("Figure 1 field: A=0 ... B=4 honest chain; X=5, Y=6 %s "
              "colluders; LITEWORP %s\n\n",
              lw::attack::to_string(config.attack.mode),
              liteworp ? "ON" : "OFF");

  // Let discovery settle, start the attack, then ask A for a route to B.
  net.run_until(config.attack.start_time + 5.0);
  net.node(0).routing().send_data(4, 32);
  net.run_until(net.simulator().now() + 30.0);

  const auto* route = net.node(0).routing().cache().peek(4,
                                                         net.simulator().now());
  if (route != nullptr) {
    std::printf("route A -> B established:");
    for (lw::NodeId hop : route->path) std::printf(" %u", hop);
    std::printf("  (%zu hops)\n", route->hop_count());
    bool through_wormhole = false;
    for (std::size_t i = 0; i + 1 < route->path.size(); ++i) {
      if (!net.graph().is_neighbor(route->path[i], route->path[i + 1])) {
        through_wormhole = true;
      }
    }
    std::printf("  -> %s\n",
                through_wormhole
                    ? "the apparently-short A-X-Y-B illusion (X-Y is NOT a "
                      "physical link)"
                    : "the honest chain");
  } else {
    std::puts("no route cached (wormhole packets were rejected; discovery "
              "continues)");
  }

  // Keep driving traffic so guards accumulate evidence.
  for (int i = 1; i <= 20; ++i) {
    net.simulator().schedule(i * 10.0, [&net] {
      net.node(0).routing().send_data(4, 32);
    });
  }
  net.run();

  const auto& m = net.metrics();
  std::printf("\nafter %.0f s: %llu delivered, %llu swallowed by the "
              "wormhole\n",
              config.duration,
              static_cast<unsigned long long>(
                  net.recorder().count(lw::obs::EventKind::kRouteDeliver)),
              static_cast<unsigned long long>(
                  net.recorder().count(lw::obs::EventKind::kAtkDrop)));
  if (const auto* final_route =
          net.node(0).routing().cache().peek(4, net.simulator().now())) {
    std::printf("final cached route A -> B:");
    for (lw::NodeId hop : final_route->path) std::printf(" %u", hop);
    bool clean = true;
    for (std::size_t i = 0; i + 1 < final_route->path.size(); ++i) {
      if (!net.graph().is_neighbor(final_route->path[i],
                                   final_route->path[i + 1])) {
        clean = false;
      }
    }
    std::printf("  (%s)\n", clean ? "the honest chain"
                                  : "still the wormhole illusion");
  }
  for (const auto& record : m.isolation()) {
    const char* name = record.node == 5 ? "X" : "Y";
    if (record.complete) {
      std::printf("%s (node %u) completely isolated at t = %.1f s\n", name,
                  record.node, *record.complete);
    } else if (record.first_detection) {
      std::printf("%s (node %u) detected at t = %.1f s (%zu/%zu neighbors "
                  "revoked)\n",
                  name, record.node, *record.first_detection,
                  record.revoked, record.required);
    } else {
      std::printf("%s (node %u) undetected%s\n", name, record.node,
                  liteworp ? "" : " (no defense)");
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "figure1_scenario", kUsage, run_example);
}
