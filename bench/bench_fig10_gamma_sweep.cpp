// Figure 10: detection probability (simulated and analytical) and
// isolation latency vs the detection confidence index gamma.
//
// Expected shape (paper, N_B = 15, M = 2): detection probability decreases
// as gamma grows (more guards must independently alert through collisions)
// while isolation latency increases but stays small (tens of seconds).
//
// Operationalization note: with unbounded observation time every guard of
// a relentlessly-cheating wormhole eventually alerts (re-alerting makes
// isolation a when, not an if), so "detection probability" is measured
// against a deadline — default 60 s after attack start, twice the paper's
// quoted worst-case latency — mirroring the paper's fixed-horizon runs.
//
// Standard flags (bench_common.h): --runs replicas per gamma, --seed base
// seed, --threads sweep workers (results identical for any count), --json
// machine-readable sweep dump (per-replica isolation latencies included).
#include <cstdio>
#include <vector>

#include "analysis/coverage.h"
#include "bench_common.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fig10_gamma_sweep [--runs=4] [--seed=500] [--threads=1]\n"
    "                               [--json] [--duration=800] [--nodes=100]\n"
    "                               [--nb=15] [--gamma_min=2] [--gamma_max=8]\n"
    "                               [--deadline=60]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 4, 500);
  const double duration = args.get_double("duration", 800.0);
  const std::size_t nodes = args.get_count("nodes", 100);
  const double nb = args.get_double("nb", 15.0);
  const int gamma_min = args.get_int("gamma_min", 2);
  const int gamma_max = args.get_int("gamma_max", 8);
  const double deadline = args.get_double("deadline", 60.0);
  lw::cli::reject_unknown(args);

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.target_neighbors = nb;
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  // Pin the fabricated link so the alerting-guard pool matches the
  // analysis' per-link geometry (g ~= 0.51 N_B); the default randomized
  // lie enlarges the pool and keeps detection at 1.0 for every gamma.
  spec.base.attack.fixed_fake_prev = true;
  // Disable the corroborated-threshold extension: the paper's guards never
  // lower their bar on hearsay, and with it enabled the detection cascade
  // erases the gamma sensitivity this figure is about (see EXPERIMENTS.md
  // for the with-extension numbers).
  spec.base.defense.liteworp.corroborated_threshold =
      spec.base.defense.liteworp.malc_threshold;
  for (int gamma = gamma_min; gamma <= gamma_max; ++gamma) {
    spec.points.push_back(
        {"gamma=" + std::to_string(gamma),
         [gamma](lw::scenario::ExperimentConfig& c) {
           c.defense.liteworp.detection_confidence = gamma;
         },
         0});
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Figure 10: detection probability and isolation latency vs "
            "gamma ==");
  std::printf("%zu nodes at N_B = %.0f, M = 2, %d run(s) per point, "
              "deadline %.0f s, %d thread(s), %.1f s wall\n\n",
              nodes, nb, common.runs, deadline, result.threads_used,
              result.wall_seconds);

  lw::analysis::CoverageParams analytic;
  auto analytic_curve =
      lw::analysis::detection_vs_gamma(analytic, nb, gamma_min, gamma_max);

  std::printf("%-7s %-18s %-16s %s\n", "gamma", "sim P(det<deadline)",
              "ana P(detection)", "mean isolation latency [s]");
  for (int gamma = gamma_min; gamma <= gamma_max; ++gamma) {
    const auto& point =
        result.points[static_cast<std::size_t>(gamma - gamma_min)];
    int within_deadline = 0;
    double latency_sum = 0.0;
    int latency_runs = 0;
    for (const auto& replica : point.replicas) {
      if (replica.isolation_latency) {
        latency_sum += *replica.isolation_latency;
        ++latency_runs;
        if (*replica.isolation_latency <= deadline) ++within_deadline;
      }
    }
    const double ana =
        analytic_curve[static_cast<std::size_t>(gamma - gamma_min)].y;
    if (latency_runs > 0) {
      std::printf("%-7d %-18.3f %-16.3f %.1f\n", gamma,
                  static_cast<double>(within_deadline) / common.runs, ana,
                  latency_sum / latency_runs);
    } else {
      std::printf("%-7d %-18.3f %-16.3f (never completely isolated)\n",
                  gamma, 0.0, ana);
    }
  }

  std::puts("\nexpected shape: detection probability decreases in gamma and\n"
            "tracks the analytic curve; isolation latency grows\n"
            "monotonically (paper: < 30 s — our re-alerting converges slow\n"
            "tails the paper's one-shot alerts abandoned, which stretches\n"
            "the high-gamma means). Rerun without the deadline flag to see\n"
            "that, given time, every gamma eventually isolates.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fig10_gamma_sweep",
                      kUsage + bench::kStandardFlags, run_bench);
}
