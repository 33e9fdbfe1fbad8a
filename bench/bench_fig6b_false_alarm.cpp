// Figure 6(b): probability of false alarm vs number of neighbors.
//
// Same parameters as 6(a); the per-packet false-suspicion probability is
// P_FA = P_C (1 - P_C) — the guard misses the handoff but hears the
// forward. Expected shape (paper): non-monotone and negligible everywhere
// (the paper plots it scaled by 1e-3).
//
// Standard flags (bench_common.h): --json emits the curve as JSON rows;
// --runs/--seed/--threads are accepted for CLI uniformity but unused
// (closed-form evaluation, no stochastic runs).
#include <cstdio>

#include "analysis/coverage.h"
#include "bench_common.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fig6b_false_alarm [--nb_min=3] [--nb_max=60] [--step=1]\n"
    "                               [--json]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 0);
  lw::analysis::CoverageParams params;
  const double nb_min = args.get_double("nb_min", 3.0);
  const double nb_max = args.get_double("nb_max", 60.0);
  const double step = args.get_double("step", 1.0);
  lw::cli::reject_unknown(args);

  if (common.json) {
    auto curve =
        lw::analysis::false_alarm_vs_neighbors(params, nb_min, nb_max, step);
    bench::JsonRows rows;
    for (const auto& point : curve) {
      const double pc = lw::analysis::collision_probability(params, point.x);
      rows.field("nb", point.x)
          .field("collision_probability", pc)
          .field("packet_false_suspicion",
                 lw::analysis::false_suspicion_probability(pc))
          .field("guard_false_alarm",
                 lw::analysis::guard_false_alarm_probability(params, pc))
          .field("false_alarm_probability", point.y);
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Figure 6(b): P(false alarm) vs number of neighbors ==");
  std::printf("params: kappa=%d k=%d gamma=%d P_FA(packet)=P_C(1-P_C)\n\n",
              params.window_events, params.per_guard_threshold,
              params.detection_confidence);
  std::printf("%-8s %-10s %-14s %-16s %s\n", "N_B", "P_C", "P_FA(packet)",
              "P_guard_false", "P(false alarm) x1e3");

  auto curve =
      lw::analysis::false_alarm_vs_neighbors(params, nb_min, nb_max, step);
  double worst = 0.0;
  double worst_nb = 0.0;
  for (const auto& point : curve) {
    const double pc = lw::analysis::collision_probability(params, point.x);
    std::printf("%-8.1f %-10.3f %-14.4f %-16.6f %.6f\n", point.x, pc,
                lw::analysis::false_suspicion_probability(pc),
                lw::analysis::guard_false_alarm_probability(params, pc),
                point.y * 1e3);
    if (point.y > worst) {
      worst = point.y;
      worst_nb = point.x;
    }
  }
  std::printf("\nworst case: %.3e at N_B = %.1f "
              "(paper: negligible everywhere, non-monotone)\n",
              worst, worst_nb);
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fig6b_false_alarm",
                      kUsage + bench::kStandardFlags, run_bench);
}
