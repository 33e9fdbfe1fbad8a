// Section 5.2: memory, computation, and bandwidth overhead of LITEWORP —
// the analytical model side by side with measurements of the live data
// structures from a real simulation run.
//
// Standard flags (bench_common.h): --seed seeds the single live
// measurement run and --defense/--defense-opt pick its backend (the live
// figures read each node's Defense::cost()); --json emits the analytic
// cost table as JSON rows; --runs/--threads are accepted for CLI
// uniformity but unused (one diagnostic run, not a sweep).
#include <cstdio>

#include "analysis/cost_model.h"
#include "bench_common.h"
#include "scenario/network.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_sec52_cost [--nodes=100] [--duration=400] [--seed=600]\n"
    "                        [--json]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 600);
  const std::size_t nodes = args.get_count("nodes", 100);
  const double duration = args.get_double("duration", 400.0);
  const std::uint64_t seed = common.seed;
  lw::cli::reject_unknown(args);
  // The live run's config, with --defense applied before any output so a
  // bad --defense-opt exits 2 under --json too.
  auto config = lw::scenario::ExperimentConfig::table2_defaults();
  config.node_count = nodes;
  config.duration = duration;
  config.seed = seed;
  bench::apply_defense(common, config);
  config.finalize();

  if (common.json) {
    lw::analysis::CostParams params;
    params.route_establishment_rate = 0.5;
    bench::JsonRows rows;
    for (double nb : {4.0, 8.0, 10.0, 16.0}) {
      params.average_neighbors = nb;
      rows.field("nb", nb)
          .field("neighbor_list_bytes",
                 static_cast<double>(lw::analysis::neighbor_list_bytes(nb)))
          .field("neighbor_list_bytes_paper",
                 static_cast<double>(
                     lw::analysis::neighbor_list_bytes_paper(nb)))
          .field("total_state_bytes",
                 static_cast<double>(
                     lw::analysis::total_state_bytes(params, 2.5, 3)));
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Section 5.2: cost analysis ==\n");

  std::puts("-- Analytical model --");
  std::printf("%-8s %-14s %-14s %-16s %s\n", "N_B", "NBLS [B]",
              "paper 5N_B^2", "watch buf [B]", "total state [B]");
  lw::analysis::CostParams params;
  params.route_establishment_rate = 0.5;
  for (double nb : {4.0, 8.0, 10.0, 16.0}) {
    params.average_neighbors = nb;
    std::printf("%-8.0f %-14zu %-14zu %-16zu %zu\n", nb,
                lw::analysis::neighbor_list_bytes(nb),
                lw::analysis::neighbor_list_bytes_paper(nb),
                lw::analysis::watch_buffer_bytes(
                    std::max(4.0, 4.0 * lw::analysis::watch_buffer_entries(
                                            params, 2.5))),
                lw::analysis::total_state_bytes(params, 2.5, 3));
  }
  std::printf("\nbandwidth: discovery (one-time) = %zu B/node; "
              "detection event = %zu B\n",
              lw::analysis::discovery_bandwidth_bytes(8.0),
              lw::analysis::detection_bandwidth_bytes(8.0));

  std::puts("\n-- Live measurement (simulation run with 2 colluders) --");
  lw::scenario::Network net(config);
  net.run();

  std::size_t table_bytes = 0;
  std::size_t state_bytes = 0;
  std::size_t watch_peak = 0;
  std::size_t max_state = 0;
  std::size_t monitors = 0;
  for (lw::NodeId id = 0; id < net.size(); ++id) {
    const auto& node = net.node(id);
    table_bytes += node.table().storage_bytes();
    if (const lw::defense::Defense* defense = node.defense()) {
      ++monitors;
      const lw::defense::CostSnapshot cost = defense->cost();
      const std::size_t s = cost.storage_bytes + node.table().storage_bytes();
      state_bytes += s;
      max_state = std::max(max_state, s);
      watch_peak = std::max<std::size_t>(watch_peak, cost.peak_watch_entries);
    }
  }
  std::printf("average degree            : %.2f\n", net.average_degree());
  std::printf("mean neighbor-table bytes : %.1f\n",
              static_cast<double>(table_bytes) / net.size());
  std::printf("mean total state bytes    : %.1f  (max %zu)\n",
              static_cast<double>(state_bytes) / monitors, max_state);
  std::printf("peak watch-buffer entries : %zu (20 B each)\n", watch_peak);

  const auto& phy = net.medium().stats();
  const double discovery_airtime =
      phy.airtime_by_type[static_cast<std::size_t>(
          lw::pkt::PacketType::kHello)] +
      phy.airtime_by_type[static_cast<std::size_t>(
          lw::pkt::PacketType::kHelloReply)] +
      phy.airtime_by_type[static_cast<std::size_t>(
          lw::pkt::PacketType::kNeighborList)];
  const double alert_airtime = phy.airtime_by_type[static_cast<std::size_t>(
      lw::pkt::PacketType::kAlert)];
  double total_airtime = 0.0;
  for (double a : phy.airtime_by_type) total_airtime += a;
  std::printf("bandwidth overhead        : discovery %.2f%% + alerts %.2f%% "
              "of all airtime\n",
              100.0 * discovery_airtime / total_airtime,
              100.0 * alert_airtime / total_airtime);

  std::puts("\nexpected shape: per-node state well under 1 KB (paper: NBLS\n"
            "< 0.5 KB at N_B = 10, watch buffer ~4 entries); LITEWORP\n"
            "bandwidth only at initialization and on detection.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_sec52_cost",
                      kUsage + bench::kStandardFlags, run_bench);
}
