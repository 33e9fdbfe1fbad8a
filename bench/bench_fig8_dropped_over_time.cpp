// Figure 8: cumulative number of data packets dropped by the wormhole vs
// simulation time — 100 nodes, M = 2 and M = 4 colluders, with and without
// LITEWORP; attack starts at t = 50 s.
//
// Expected shape (paper): without LITEWORP the cumulative count climbs for
// the whole run; with LITEWORP it flattens shortly after the wormhole is
// isolated (a short tail while stale routes drain), at a level orders of
// magnitude below the baseline.
//
// Standard flags (bench_common.h): --runs replicas per series, --seed base
// seed, --threads sweep workers (results identical for any count), --json
// emits the four averaged time series as JSON rows.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "scenario/sweep.h"
#include "stats/metrics.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fig8_dropped_over_time [--runs=3] [--seed=300]\n"
    "                                    [--threads=1] [--json]\n"
    "                                    [--duration=2000] [--nodes=100]\n"
    "                                    [--dt=100]";

namespace {

/// Run-averaged cumulative drop counts sampled every dt.
std::vector<double> averaged_series(
    const lw::scenario::SweepPointResult& point, double duration, double dt) {
  const std::size_t samples = static_cast<std::size_t>(duration / dt) + 1;
  std::vector<double> cumulative(samples, 0.0);
  for (const auto& replica : point.replicas) {
    for (std::size_t i = 0; i < samples; ++i) {
      cumulative[i] += static_cast<double>(
          lw::stats::MetricsCollector::cumulative_at(
              replica.drop_times, static_cast<double>(i) * dt));
    }
  }
  for (double& v : cumulative) {
    v /= static_cast<double>(point.replicas.size());
  }
  return cumulative;
}

double mean_latency(const lw::scenario::SweepPointResult& point) {
  return point.aggregate.mean_isolation_latency
             ? *point.aggregate.mean_isolation_latency
             : -1.0;
}

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 3, 300);
  const double duration = args.get_double("duration", 2000.0);
  const std::size_t nodes = args.get_count("nodes", 100);
  const double dt = args.get_double("dt", 100.0);
  lw::cli::reject_unknown(args);

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  const struct {
    const char* label;
    std::size_t malicious;
    bool liteworp;
  } series[] = {{"M=2 baseline", 2, false},
                {"M=4 baseline", 4, false},
                {"M=2 LITEWORP", 2, true},
                {"M=4 LITEWORP", 4, true}};
  for (const auto& s : series) {
    const std::size_t malicious = s.malicious;
    const bool liteworp = s.liteworp;
    spec.points.push_back(
        {s.label,
         [malicious, liteworp](lw::scenario::ExperimentConfig& c) {
           c.malicious_count = malicious;
           c.defense.name = liteworp ? "liteworp" : "none";
         },
         0});
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  std::vector<std::vector<double>> curves;
  curves.reserve(result.points.size());
  for (const auto& point : result.points) {
    curves.push_back(averaged_series(point, duration, dt));
  }

  if (common.json) {
    bench::JsonRows rows;
    for (std::size_t i = 0; i < curves.front().size(); ++i) {
      rows.field("time", static_cast<double>(i) * dt);
      for (std::size_t p = 0; p < result.points.size(); ++p) {
        rows.field(result.points[p].label, curves[p][i]);
      }
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Figure 8: cumulative packets dropped by the wormhole ==");
  std::printf("%zu nodes, attack at t=50 s, %d run(s) averaged, "
              "%d thread(s), %.1f s wall\n\n",
              nodes, common.runs, result.threads_used, result.wall_seconds);

  std::printf("%-8s %14s %14s %14s %14s\n", "time[s]", "M=2 baseline",
              "M=4 baseline", "M=2 LITEWORP", "M=4 LITEWORP");
  for (std::size_t i = 0; i < curves.front().size(); ++i) {
    std::printf("%-8.0f %14.1f %14.1f %14.1f %14.1f\n",
                static_cast<double>(i) * dt, curves[0][i], curves[1][i],
                curves[2][i], curves[3][i]);
  }

  std::printf("\nisolation latency (mean over isolated runs): "
              "M=2: %.1f s, M=4: %.1f s after attack start\n",
              mean_latency(result.points[2]), mean_latency(result.points[3]));
  std::printf("final cumulative drops: baseline M=2: %.0f, M=4: %.0f; "
              "LITEWORP M=2: %.0f, M=4: %.0f\n",
              curves[0].back(), curves[1].back(), curves[2].back(),
              curves[3].back());
  std::puts("\nexpected shape: baseline climbs for the whole run; LITEWORP\n"
            "flattens shortly after isolation (short stale-route tail).");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fig8_dropped_over_time",
                      kUsage + bench::kStandardFlags, run_bench);
}
