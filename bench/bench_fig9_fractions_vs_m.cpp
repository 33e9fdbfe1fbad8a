// Figure 9: fraction of packets dropped and fraction of wormhole routes vs
// the number of compromised nodes M = 0..4, snapshot at the end of the
// run, baseline vs LITEWORP.
//
// Expected shape (paper): both fractions grow with M in the baseline
// (super-linearly for drops — wormhole routes attract traffic); with
// LITEWORP both stay near zero. M = 0 and M = 1 do no damage in the
// colluding tunnel modes (no wormhole can form).
//
// Standard flags (bench_common.h): --runs replicas per point, --seed base
// seed, --threads sweep workers (results identical for any count), --json
// machine-readable sweep dump.
#include <cstdio>

#include "bench_common.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fig9_fractions_vs_m [--runs=2] [--seed=400] [--threads=1]\n"
    "                                 [--json] [--duration=1500]\n"
    "                                 [--nodes=100] [--m_max=4]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 2, 400);
  const double duration = args.get_double("duration", 1500.0);
  const std::size_t nodes = args.get_count("nodes", 100);
  const int m_max = args.get_int("m_max", 4);
  lw::cli::reject_unknown(args);

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  for (int m = 0; m <= m_max; ++m) {
    for (bool liteworp : {false, true}) {
      spec.points.push_back(
          {"M=" + std::to_string(m) + (liteworp ? " liteworp" : " baseline"),
           [m, liteworp](lw::scenario::ExperimentConfig& c) {
             c.malicious_count = static_cast<std::size_t>(m);
             c.defense.name = liteworp ? "liteworp" : "none";
           },
           0});
    }
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Figure 9: damage fractions vs number of compromised nodes ==");
  std::printf("%zu nodes, %.0f s snapshot, %d run(s) averaged, %d thread(s), "
              "%.1f s wall\n\n",
              nodes, duration, common.runs, result.threads_used,
              result.wall_seconds);
  std::printf("%-4s | %-22s | %-22s\n", "", "fraction dropped",
              "fraction wormhole routes");
  std::printf("%-4s | %-10s %-10s | %-10s %-10s\n", "M", "baseline",
              "LITEWORP", "baseline", "LITEWORP");
  std::puts("-----+-----------------------+----------------------");

  for (int m = 0; m <= m_max; ++m) {
    const auto& baseline = result.points[2 * m].aggregate;
    const auto& guarded = result.points[2 * m + 1].aggregate;
    std::printf("%-4d | %-10.4f %-10.4f | %-10.4f %-10.4f\n", m,
                baseline.fraction_dropped, guarded.fraction_dropped,
                baseline.fraction_wormhole_routes,
                guarded.fraction_wormhole_routes);
  }

  std::puts("\nexpected shape: baseline fractions grow with M (drops\n"
            "super-linearly -- wormhole routes attract traffic); LITEWORP\n"
            "columns stay near zero; M <= 1 does no damage (no colluder).");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fig9_fractions_vs_m",
                      kUsage + bench::kStandardFlags, run_bench);
}
