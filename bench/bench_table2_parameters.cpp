// Table 2: input parameter values for the LITEWORP simulations.
//
// Prints the configuration every simulation bench runs with, validates the
// derived quantities (field side vs density, discovery windows), and
// documents the single calibrated deviation (lambda).
//
// Standard flags (bench_common.h): --json emits the parameters as a JSON
// row; --runs/--seed/--threads are accepted for CLI uniformity but unused
// (this bench prints configuration, it does not simulate).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "scenario/config.h"
#include "topology/field.h"
#include "util/config.h"
#include "util/math_util.h"

constexpr const char* kUsage = "usage: bench_table2_parameters [--json]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 1);
  lw::cli::reject_unknown(args);
  auto config = lw::scenario::ExperimentConfig::table2_defaults();

  if (common.json) {
    bench::JsonRows rows;
    rows.field("node_count", static_cast<double>(config.node_count))
        .field("radio_range_m", config.radio_range)
        .field("target_neighbors", config.target_neighbors)
        .field("bandwidth_bps", config.phy.bandwidth_bps)
        .field("data_rate_per_s", config.traffic.data_rate)
        .field("destination_change_rate_per_s",
               config.traffic.destination_change_rate)
        .field("route_timeout_s", config.routing.route_timeout)
        .field("attack_start_s", config.attack.start_time)
        .field("malicious_count", static_cast<double>(config.malicious_count))
        .field("duration_s", config.duration)
        .field("gamma",
               static_cast<double>(
                   config.defense.liteworp.detection_confidence));
    rows.end_row();
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Table 2: input parameters (as configured) ==\n");
  std::cout << config.summary();

  std::puts("\n== Derived / validation ==\n");
  for (std::size_t n : {20u, 50u, 100u, 150u}) {
    const double side = lw::topo::field_side_for_density(
        n, config.radio_range, config.target_neighbors);
    std::printf("  N = %3zu  ->  field %6.1f x %6.1f m (paper: 80x80 .. "
                "200x200 over the same range)\n",
                n, side, side);
  }
  const double density = config.target_neighbors /
                         (lw::kPi * config.radio_range * config.radio_range);
  std::printf("  node density d = %.5f /m^2,  N_B = pi r^2 d = %.2f\n",
              density,
              lw::kPi * config.radio_range * config.radio_range * density);

  std::puts(
      "\n== Calibration note ==\n"
      "  Table 2 quotes lambda = 1/10 s per node. On this library's plain\n"
      "  CSMA 40 kbps channel that load sits past the congestion cliff\n"
      "  (~25% collision rates, far above the P_C ~= 0.05-0.13 assumed by\n"
      "  the paper's own Section 5.1 analysis). The benches run lambda =\n"
      "  1/20 s, which lands measured collision rates at ~10% for N_B = 8\n"
      "  -- exactly the analysis' operating point. All other Table 2\n"
      "  values are used literally. See DESIGN.md for details.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_table2_parameters",
                      kUsage + bench::kStandardFlags, run_bench);
}
