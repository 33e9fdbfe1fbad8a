// Figure 6(a): probability of wormhole detection vs number of neighbors.
//
// Analytical model of Section 5.1 with the figure's parameters: kappa = 7
// malicious events per window, a guard alerts after catching k = 5 of
// them, gamma = 3 guards must alert, P_C = 0.05 at N_B = 3 and growing
// linearly with density.
//
// Expected shape (paper): rises with density (more guards), peaks near
// certainty, then falls rapidly once collisions swamp the guards.
//
// Standard flags (bench_common.h): --json emits the curve as JSON rows;
// --runs/--seed/--threads are accepted for CLI uniformity but unused
// (closed-form evaluation, no stochastic runs).
#include <cstdio>

#include "analysis/coverage.h"
#include "bench_common.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fig6a_detection_vs_density [--nb_min=3] [--nb_max=40]\n"
    "                                        [--step=1] [--gamma=3] [--json]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 0);
  lw::analysis::CoverageParams params;
  params.detection_confidence = args.get_int("gamma", 3);
  const double nb_min = args.get_double("nb_min", 3.0);
  const double nb_max = args.get_double("nb_max", 40.0);
  const double step = args.get_double("step", 1.0);
  lw::cli::reject_unknown(args);

  if (common.json) {
    auto curve =
        lw::analysis::detection_vs_neighbors(params, nb_min, nb_max, step);
    bench::JsonRows rows;
    for (const auto& point : curve) {
      const double pc = lw::analysis::collision_probability(params, point.x);
      rows.field("nb", point.x)
          .field("collision_probability", pc)
          .field("expected_guards", lw::analysis::expected_guards(point.x))
          .field("guard_alert_probability",
                 lw::analysis::guard_alert_probability(params, pc))
          .field("detection_probability", point.y);
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Figure 6(a): P(wormhole detection) vs number of neighbors ==");
  std::printf("params: kappa=%d k=%d gamma=%d P_C=%.2f@N_B=%.0f (linear)\n\n",
              params.window_events, params.per_guard_threshold,
              params.detection_confidence, params.pc_reference,
              params.pc_reference_neighbors);
  std::printf("%-8s %-8s %-10s %-12s %s\n", "N_B", "P_C", "guards",
              "P_alert", "P(detection)");

  auto curve =
      lw::analysis::detection_vs_neighbors(params, nb_min, nb_max, step);
  for (const auto& point : curve) {
    const double pc = lw::analysis::collision_probability(params, point.x);
    std::printf("%-8.1f %-8.3f %-10.2f %-12.4f %.4f\n", point.x, pc,
                lw::analysis::expected_guards(point.x),
                lw::analysis::guard_alert_probability(params, pc), point.y);
  }

  // Locate the peak for the summary line.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].y > curve[peak].y) peak = i;
  }
  std::printf("\npeak: P(detection) = %.4f at N_B = %.1f "
              "(paper: rises, peaks near 1, then falls)\n",
              curve[peak].y, curve[peak].x);
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fig6a_detection_vs_density",
                      kUsage + bench::kStandardFlags, run_bench);
}
