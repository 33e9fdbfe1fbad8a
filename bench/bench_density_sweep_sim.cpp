// Simulated companion to Figure 6(a): detection probability and false
// alarms measured in the full simulator across network densities, next to
// the closed-form curve evaluated at the MEASURED collision rate.
//
// The paper's Section 6 claims "100% detection of the wormholes for a wide
// range of network densities" — this bench is that claim, swept.
//
// Standard flags (bench_common.h): --runs replicas per density, --seed
// base seed, --threads sweep workers (results identical for any count),
// --json machine-readable sweep dump. The analytic column is evaluated at
// the collision rate measured in the first replica (seed = --seed), which
// replaces the old separate probe run bit-for-bit.
#include <cstdio>
#include <vector>

#include "analysis/coverage.h"
#include "bench_common.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_density_sweep_sim [--runs=3] [--seed=800] [--threads=1]\n"
    "                               [--json] [--duration=800] [--nodes=60]\n"
    "                               [--nb_min=5] [--nb_max=14]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 3, 800);
  const double duration = args.get_double("duration", 800.0);
  const std::size_t nodes = args.get_count("nodes", 60);
  const int nb_min = args.get_int("nb_min", 5);
  const int nb_max = args.get_int("nb_max", 14);
  lw::cli::reject_unknown(args);

  const int default_gamma = lw::scenario::ExperimentConfig::table2_defaults()
                                .defense.liteworp.detection_confidence;

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  std::vector<int> densities;
  for (int nb = nb_min; nb <= nb_max; nb += 3) {
    densities.push_back(nb);
    spec.points.push_back(
        {"N_B=" + std::to_string(nb),
         [nb, default_gamma](lw::scenario::ExperimentConfig& c) {
           c.target_neighbors = static_cast<double>(nb);
           // gamma must stay below the expected guard count (coverage
           // analysis).
           c.defense.liteworp.detection_confidence =
               nb <= 6 ? 2 : default_gamma;
         },
         0});
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Simulated detection across densities (Fig 6(a) companion, "
            "Sec 6 claim) ==");
  std::printf("%zu nodes, M = 2 out-of-band colluders, %.0f s, %d run(s) "
              "per density, %d thread(s), %.1f s wall\n\n",
              nodes, duration, common.runs, result.threads_used,
              result.wall_seconds);
  std::printf("%-6s %-10s %-16s %-16s %-10s %s\n", "N_B", "measured",
              "sim P(detect)", "ana P(detect)", "false", "mean isolation");
  std::printf("%-6s %-10s %-16s %-16s %-10s %s\n", "", "collide",
              "(+/- sem)", "@measured P_C", "isolations", "latency [s]");

  for (std::size_t p = 0; p < densities.size(); ++p) {
    const int nb = densities[p];
    const auto& point = result.points[p];
    const auto& agg = point.aggregate;

    // Evaluate the analytic curve at the first replica's true collision
    // probability.
    const auto& probe = point.replicas.front();
    const double pc =
        static_cast<double>(probe.frames_collided) /
        static_cast<double>(probe.frames_collided + probe.frames_delivered);

    lw::analysis::CoverageParams ana;
    ana.detection_confidence = nb <= 6 ? 2 : default_gamma;
    ana.pc_reference = pc;
    ana.pc_reference_neighbors = static_cast<double>(nb);
    const double analytic = lw::analysis::detection_probability(
        ana, static_cast<double>(nb));

    std::printf("%-6d %-10.3f %.3f +/- %-6.3f %-16.3f %-10.1f ", nb, pc,
                agg.detection_probability, agg.detection_probability_sem,
                analytic, agg.false_isolations);
    if (agg.mean_isolation_latency) {
      std::printf("%.1f\n", *agg.mean_isolation_latency);
    } else {
      std::printf("--\n");
    }
  }

  std::puts("\nexpected shape: simulated detection ~1.0 across the evaluated\n"
            "densities (the Section 6 claim), consistent with the analytic\n"
            "probability at the measured collision rate; zero false\n"
            "isolations throughout.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_density_sweep_sim",
                      kUsage + bench::kStandardFlags, run_bench);
}
