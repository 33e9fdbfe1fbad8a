// Ablations of the design decisions DESIGN.md documents: what breaks (and
// how) when each calibration or refinement is removed. Not a paper figure
// — the justification record for every place this implementation deviates
// from a literal reading.
//
// Standard flags (bench_common.h): --runs replicas per variant, --seed
// base seed, --threads sweep workers (results identical for any count),
// --json machine-readable sweep dump.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_ablations [--runs=2] [--seed=700] [--threads=1] [--json]\n"
    "                       [--nodes=100] [--duration=600]";

namespace {

struct Variant {
  std::string name;
  std::string expectation;
  std::function<void(lw::scenario::ExperimentConfig&)> tweak;
};

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 2, 700);
  const std::size_t nodes = args.get_count("nodes", 100);
  const double duration = args.get_double("duration", 600.0);
  lw::cli::reject_unknown(args);

  const std::vector<Variant> variants = {
      {"default (calibrated)", "baseline for the rows below",
       [](lw::scenario::ExperimentConfig&) {}},
      {"strict per-link fabrication check",
       "false suspicions/isolations jump: every collision convicts",
       [](lw::scenario::ExperimentConfig& c) {
         c.defense.liteworp.strict_link_check = true;
       }},
      {"no kappa-block reset",
       "noise accumulates forever; honest nodes eventually convicted",
       [](lw::scenario::ExperimentConfig& c) {
         c.defense.liteworp.window_packets = 0;
       }},
      {"no link-layer ARQ",
       "multihop unicast dies to hidden terminals; delivery collapses",
       [](lw::scenario::ExperimentConfig& c) { c.mac.arq = false; }},
      {"no broadcast suppression",
       "flood airtime ~3x; more collisions, more noise",
       [](lw::scenario::ExperimentConfig& c) {
         c.routing.broadcast_suppression_copies = 1 << 20;
       }},
      {"RTS/CTS enabled (threshold 40 B)",
       "handshake overhead exceeds its hidden-terminal savings at 40 kbps",
       [](lw::scenario::ExperimentConfig& c) { c.mac.rts_threshold = 40; }},
      {"Table-2 literal lambda = 1/10 s",
       "past the congestion cliff: collisions ~25%, noise climbs",
       [](lw::scenario::ExperimentConfig& c) {
         c.traffic.data_rate = 1.0 / 10.0;
       }},
      {"gamma = 1 (single-guard isolation)",
       "fastest isolation, but a single framing guard could evict anyone",
       [](lw::scenario::ExperimentConfig& c) {
         c.defense.liteworp.detection_confidence = 1;
       }},
      {"naive attacker (announces colluder)",
       "admission checks kill the wormhole before guards even matter",
       [](lw::scenario::ExperimentConfig& c) {
         c.attack.smart_prev_hop = false;
       }},
  };

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  for (const auto& variant : variants) {
    spec.points.push_back({variant.name, variant.tweak, 0});
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  if (common.json) {
    std::puts(bench::sweep_json(common, result).c_str());
    return 0;
  }

  std::puts("== Design-decision ablations ==");
  std::printf("%zu nodes, M = 2 out-of-band colluders, %.0f s, %d run(s), "
              "%d thread(s), %.1f s wall\n\n",
              nodes, duration, common.runs, result.threads_used,
              result.wall_seconds);
  std::printf("%-38s %9s %9s %8s %9s %9s %8s\n", "variant", "delivery",
              "collide", "isolated", "latency", "falseiso", "wormrte");

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& point = result.points[v];
    double delivery = 0.0;
    double collide = 0.0;
    double isolated = 0.0;
    double latency_sum = 0.0;
    int latency_n = 0;
    for (const auto& r : point.replicas) {
      delivery += r.data_originated
                      ? static_cast<double>(r.data_delivered) /
                            static_cast<double>(r.data_originated)
                      : 0.0;
      collide += r.frames_transmitted
                     ? static_cast<double>(r.frames_collided) /
                           static_cast<double>(r.frames_collided +
                                               r.frames_delivered)
                     : 0.0;
      isolated += r.malicious_count
                      ? static_cast<double>(r.malicious_isolated) /
                            static_cast<double>(r.malicious_count)
                      : 1.0;
      if (r.isolation_latency) {
        latency_sum += *r.isolation_latency;
        ++latency_n;
      }
    }
    const double n = static_cast<double>(point.replicas.size());
    std::printf("%-38s %8.1f%% %8.1f%% %8.2f %9s %9.1f %8.1f\n",
                variants[v].name.c_str(), 100.0 * delivery / n,
                100.0 * collide / n, isolated / n,
                latency_n ? std::to_string(static_cast<int>(
                                latency_sum / latency_n))
                                .c_str()
                          : "--",
                point.aggregate.false_isolations,
                point.aggregate.wormhole_routes);
    std::printf("%-38s   -> %s\n", "", variants[v].expectation.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_ablations",
                      kUsage + bench::kStandardFlags, run_bench);
}
