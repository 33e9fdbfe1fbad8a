// Comparison harness: the defense zoo head to head — LITEWORP's guard
// monitoring vs temporal packet leashes (Hu et al.) vs the Z-score
// neighbor-table detector vs no defense — the quantitative version of the
// paper's Section 2 related-work argument.
//
// For each attack mode, every registered backend runs on the same field
// and seeds (common random numbers). Columns are the wormhole's footprint.
//
// Standard flags (bench_common.h): --runs replicas per (mode, defense)
// cell, --seed base seed, --threads sweep workers (results identical for
// any count), --json machine-readable sweep dump. Backend parameters are
// tuned with the shared --defense-opt flag, e.g.
// --defense-opt=zscore.z_threshold=3 (applied to every point).
#include <cstdio>
#include <string>
#include <vector>

#include "attack/modes.h"
#include "bench_common.h"
#include "defense/defense.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_comparison_leash [--runs=2] [--seed=900] [--threads=1]\n"
    "                              [--json] [--duration=400] [--nodes=60]\n"
    "                              [--perfect_clocks=false]";

namespace {

/// Backends in table-column order: baseline first, detectors last.
const std::vector<std::string> kDefenses = {"none", "leash", "zscore",
                                            "liteworp"};

double isolated_fraction(const lw::scenario::SweepPointResult& point) {
  double isolated = 0.0;
  for (const auto& r : point.replicas) {
    isolated += r.malicious_count
                    ? static_cast<double>(r.malicious_isolated) /
                          static_cast<double>(r.malicious_count)
                    : 0.0;
  }
  return isolated / static_cast<double>(point.replicas.size());
}

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 2, 900);
  const double duration = args.get_double("duration", 400.0);
  const std::size_t nodes = args.get_count("nodes", 60);
  const bool perfect_clocks = args.get_bool("perfect_clocks", false);
  lw::cli::reject_unknown(args);

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  // Points in row-major (mode, defense) order, defenses as in kDefenses.
  for (const auto& row : lw::attack::attack_mode_table()) {
    for (const std::string& defense : kDefenses) {
      const auto mode = row.mode;
      const int malicious = row.min_compromised_nodes;
      spec.points.push_back(
          {std::string(row.name) + " / " + defense,
           [mode, malicious, defense,
            perfect_clocks](lw::scenario::ExperimentConfig& c) {
             c.malicious_count = static_cast<std::size_t>(malicious);
             c.attack.mode = mode;
             c.defense.name = defense;
             if (perfect_clocks) {
               c.defense.leash.sync_error = 0.0;
               c.defense.leash.processing_slack = 0.0;
             }
           },
           0});
    }
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Defense zoo vs the attack taxonomy (Section 2 argument) ==");
  std::printf("%zu nodes, %.0f s, %d run(s); leash clock sync: %s; "
              "%d thread(s), %.1f s wall\n\n",
              nodes, duration, common.runs,
              perfect_clocks ? "perfect" : "1 us (TIK-era)",
              result.threads_used, result.wall_seconds);
  std::printf("%-24s | %-35s | %-35s | %s\n", "",
              "wormhole routes", "wormhole data drops", "isolated frac");
  std::printf("%-24s | %-8s %-8s %-8s %-8s | %-8s %-8s %-8s %-8s | "
              "%-8s %s\n",
              "mode", "none", "leash", "zscore", "litewrp", "none", "leash",
              "zscore", "litewrp", "zscore", "litewrp");

  std::size_t p = 0;
  for (const auto& row : lw::attack::attack_mode_table()) {
    const auto& none = result.points[p];
    const auto& leash = result.points[p + 1];
    const auto& zscore = result.points[p + 2];
    const auto& lworp = result.points[p + 3];
    p += kDefenses.size();
    std::printf("%-24s | %-8.1f %-8.1f %-8.1f %-8.1f | "
                "%-8.0f %-8.0f %-8.0f %-8.0f | %-8.2f %.2f\n",
                std::string(row.name).c_str(),
                none.aggregate.wormhole_routes,
                leash.aggregate.wormhole_routes,
                zscore.aggregate.wormhole_routes,
                lworp.aggregate.wormhole_routes,
                none.aggregate.data_dropped_malicious,
                leash.aggregate.data_dropped_malicious,
                zscore.aggregate.data_dropped_malicious,
                lworp.aggregate.data_dropped_malicious,
                isolated_fraction(zscore), isolated_fraction(lworp));
  }

  std::puts(
      "\nexpected shape (the paper's related-work argument, measured):\n"
      "  - packet relay: leash and LITEWORP both stop the forged link\n"
      "    (stale stamp vs neighbor-list check);\n"
      "  - high power: LITEWORP rejects via neighbor lists; the leash\n"
      "    needs perfect clocks to see sub-microsecond extra flight\n"
      "    (rerun with --perfect_clocks=true);\n"
      "  - encapsulation / out-of-band INSIDER tunnels: the leash is\n"
      "    blind (fresh truthful stamps at both tunnel ends); LITEWORP\n"
      "    detects AND isolates, and the Z-score detector flags the\n"
      "    endpoints statistically;\n"
      "  - protocol deviation: no backend helps;\n"
      "  - only the accusation-based backends (LITEWORP, zscore) ever\n"
      "    remove the attacker (isolated columns).");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_comparison_leash",
                      kUsage + bench::kStandardFlags, run_bench);
}
