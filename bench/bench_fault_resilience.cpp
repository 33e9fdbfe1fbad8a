// Robustness sweep: LiteWorp detection under infrastructure faults.
//
// Grid: crash rate x framing guards x link loss, each point a full
// wormhole run (M = 2) with a deterministic FaultPlan layered on top:
//
//   crash rate     fraction of nodes scheduled to crash mid-run and
//                  reboot 70 s later through dynamic join (churn);
//   framing guards compromised guards emitting authenticated false
//                  alerts against one victim -- the paper's gamma
//                  (detection confidence) bar is the defense, so the
//                  axis brackets gamma: below it framed isolations must
//                  stay at zero, at/above it the victim can fall;
//   link loss      extra loss on every link inside a 12-node id window
//                  during [80, 200) s (transient partition pressure).
//
// Reported per point: detection probability (the wormhole still gets
// caught under churn), framed accusations/isolations (gamma claim),
// crash/recovery counts and mean recovery latency (dynamic-join
// re-entry), and the dropped-data fraction.
//
// Standard flags (bench_common.h) apply; --run-timeout and SIGINT
// handling come free with the harness.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_fault_resilience [--runs=2] [--seed=900] [--threads=1]\n"
    "                              [--nodes=49] [--duration=300] [--json]";

namespace {

/// Builds the per-point fault plan. Fault targets are fixed id ranges
/// (not topology-aware): crash victims stride through [2, nodes), the
/// framing victim sits mid-range, and the lossy window covers every pair
/// in [2, 14) -- with random placement an expected handful of those
/// pairs are real links. Malicious ids are randomly picked per seed, so
/// a target occasionally lands on an attacker; that only makes the
/// point harder (crashing a wormhole endpoint disrupts the attack).
lw::fault::FaultPlan make_plan(std::size_t nodes, double crash_rate,
                               std::size_t frame_guards, double link_loss) {
  lw::fault::FaultPlan plan;
  const auto n_crash =
      static_cast<std::size_t>(crash_rate * static_cast<double>(nodes) + 0.5);
  if (n_crash > 0) {
    const std::size_t pool = nodes - 2;
    const std::size_t stride = std::max<std::size_t>(1, pool / n_crash);
    for (std::size_t i = 0; i < n_crash && 2 + i * stride < nodes; ++i) {
      lw::fault::CrashFault crash;
      crash.node = static_cast<lw::NodeId>(2 + i * stride);
      crash.at = 60.0 + 15.0 * static_cast<double>(i);
      crash.recover_at = crash.at + 70.0;
      plan.crashes.push_back(crash);
    }
  }
  if (frame_guards > 0) {
    lw::fault::FramingFault framing;
    framing.victim = static_cast<lw::NodeId>(nodes / 2);
    framing.guards = frame_guards;
    framing.start = 120.0;
    plan.framings.push_back(framing);
  }
  if (link_loss > 0.0) {
    for (lw::NodeId a = 2; a < 14 && a < nodes; ++a) {
      for (lw::NodeId b = a + 1; b < 14 && b < nodes; ++b) {
        lw::fault::LinkFault link;
        link.a = a;
        link.b = b;
        link.from = 80.0;
        link.until = 200.0;
        link.extra_loss = link_loss;
        plan.links.push_back(link);
      }
    }
  }
  return plan;
}

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 2, 900);
  const std::size_t nodes = args.get_count("nodes", 49);
  const double duration = args.get_double("duration", 300.0);
  lw::cli::reject_unknown(args);

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  const int gamma = spec.base.defense.liteworp.detection_confidence;

  const double crash_rates[] = {0.0, 0.1, 0.2};
  const std::size_t frame_levels[] = {
      0, static_cast<std::size_t>(gamma - 1),
      static_cast<std::size_t>(gamma + 1)};
  const double loss_levels[] = {0.0, 0.5, 1.0};
  for (double crash : crash_rates) {
    for (std::size_t frames : frame_levels) {
      for (double loss : loss_levels) {
        char label[64];
        std::snprintf(label, sizeof(label),
                      "crash=%.1f frame=%zu loss=%.1f", crash, frames, loss);
        spec.points.push_back(
            {label,
             [nodes, crash, frames, loss](lw::scenario::ExperimentConfig& c) {
               c.fault = make_plan(nodes, crash, frames, loss);
             },
             0});
      }
    }
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Fault resilience: detection under churn, framing, and link "
            "loss ==");
  std::printf("%zu nodes, M = 2, gamma = %d, %d run(s) per point, "
              "%d thread(s), %.1f s wall\n\n",
              nodes, gamma, common.runs, result.threads_used,
              result.wall_seconds);
  std::printf("%-28s %-8s %-10s %-12s %-10s %-10s %s\n", "point", "P(det)",
              "dropped", "framed(iso)", "crashed", "recovered",
              "recovery [s]");
  for (const auto& point : result.points) {
    const auto& agg = point.aggregate;
    char framed[32];
    std::snprintf(framed, sizeof(framed), "%.1f(%.1f)",
                  agg.framed_accusations, agg.framed_isolations);
    char recovery[32];
    if (agg.recovery_samples > 0) {
      std::snprintf(recovery, sizeof(recovery), "%.1f",
                    agg.mean_recovery_latency);
    } else {
      std::snprintf(recovery, sizeof(recovery), "-");
    }
    std::printf("%-28s %-8.2f %-10.3f %-12s %-10.1f %-10.1f %s%s\n",
                point.label.c_str(), agg.detection_probability,
                agg.fraction_dropped, framed, agg.nodes_crashed,
                agg.nodes_recovered, recovery,
                agg.failed_runs > 0 ? "  [failed runs]" : "");
  }

  std::puts("\nexpected shape: detection probability stays high under churn\n"
            "and link loss; framed isolations are zero whenever the framing\n"
            "guard count is below gamma (the paper's detection-confidence\n"
            "defense) and may become nonzero at or above it; every crashed\n"
            "node that recovers re-enters through dynamic join (recovery\n"
            "latency is the time back to the first re-authenticated\n"
            "neighbor).");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_fault_resilience",
                      kUsage + bench::kStandardFlags, run_bench);
}
