// Interactive exploration of the Section 5.1 coverage model: answers the
// design question "how dense must my network be, and how should I set the
// detection confidence index?" for user-supplied parameters.
#include <cstdio>

#include "analysis/cost_model.h"
#include "analysis/coverage.h"
#include "util/cli.h"

constexpr const char* kUsage =
    "usage: coverage_explorer [--kappa=7] [--k=5] [--gamma=3] [--pc=0.05]\n"
    "                         [--pc_nb=3] [--target=0.95] [--nb=8]";

static int run_example(lw::Config& args) {
  lw::analysis::CoverageParams params;
  params.window_events = args.get_int("kappa", 7);
  params.per_guard_threshold = args.get_int("k", 5);
  params.detection_confidence = args.get_int("gamma", 3);
  params.pc_reference = args.get_double("pc", 0.05);
  params.pc_reference_neighbors = args.get_double("pc_nb", 3.0);
  const double target = args.get_double("target", 0.95);
  const double nb = args.get_double("nb", 8.0);
  lw::cli::reject_unknown(args);

  std::puts("== LITEWORP coverage explorer ==\n");
  std::printf("window kappa = %d packets, per-guard threshold k = %d, "
              "gamma = %d\n",
              params.window_events, params.per_guard_threshold,
              params.detection_confidence);
  std::printf("P_C = %.3f at N_B = %.1f, growing linearly with density\n\n",
              params.pc_reference, params.pc_reference_neighbors);

  std::printf("At your density N_B = %.1f:\n", nb);
  const double pc = lw::analysis::collision_probability(params, nb);
  std::printf("  collision probability        P_C     = %.3f\n", pc);
  std::printf("  expected guards per link     g       = %.2f\n",
              lw::analysis::expected_guards(nb));
  std::printf("  per-guard alert probability  P_alert = %.4f\n",
              lw::analysis::guard_alert_probability(params, pc));
  std::printf("  P(wormhole detected)                 = %.4f\n",
              lw::analysis::detection_probability(params, nb));
  std::printf("  P(honest node falsely accused)       = %.3e\n\n",
              lw::analysis::false_alarm_probability(params, nb));

  std::printf("Density needed for P(detect) >= %.2f: ", target);
  const double needed =
      lw::analysis::neighbors_for_detection(params, target, 3.0, 60.0);
  if (needed > 0) {
    std::printf("N_B >= %.1f", needed);
    const double d = lw::analysis::density_from_neighbors(30.0, needed);
    std::printf("  (%.5f nodes/m^2 at r = 30 m)\n", d);
  } else {
    std::puts("unattainable below N_B = 60 with these parameters");
  }

  std::puts("\nGamma trade-off at your density:");
  std::printf("  %-7s %-14s %s\n", "gamma", "P(detect)", "P(false alarm)");
  lw::analysis::CoverageParams sweep = params;
  for (int gamma = 1; gamma <= 10; ++gamma) {
    sweep.detection_confidence = gamma;
    std::printf("  %-7d %-14.4f %.3e\n", gamma,
                lw::analysis::detection_probability(sweep, nb),
                lw::analysis::false_alarm_probability(sweep, nb));
  }

  std::puts("\nMemory budget at this density (Section 5.2):");
  lw::analysis::CostParams cost;
  cost.average_neighbors = nb;
  cost.route_establishment_rate = 0.5;
  std::printf("  neighbor lists %zu B + watch buffer %zu B + alert buffer "
              "%zu B = %zu B per node\n",
              lw::analysis::neighbor_list_bytes(nb),
              lw::analysis::watch_buffer_bytes(4.0),
              lw::analysis::alert_buffer_bytes(params.detection_confidence),
              lw::analysis::total_state_bytes(cost, 2.5,
                                              params.detection_confidence));
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "coverage_explorer", kUsage, run_example);
}
