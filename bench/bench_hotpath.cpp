// Hot-path macrobenchmark: whole-stack frames/sec at small, medium, and
// large N, with and without collisions — the perf trajectory anchor.
//
// A --nodes entry may carry a `c` (collisions only) or `i` (ideal only)
// suffix; bare counts run both variants. The default ends with 1000c: a
// large-N collisions case that exercises the dense-neighborhood fan-out
// without paying for its ideal twin.
//
// With --series each JSON row gains the deterministic telemetry high-water
// fields (queue_high_water, mem_*): feed two such runs to `lw-report diff`
// for a per-case perf comparison.
//
// The cases run as the points of one bench::run_sweep, so every standard
// flag applies: --defense picks the backend, --threads spreads the
// replicas, --trace streams every case's runs into one file, --profile
// prints the per-layer summary on stderr (and adds that instrumentation to
// the measured wall time, so throughput comparisons run without it), and
// a replica that --run-timeout stops fails the bench with exit 1.
//
// Each case runs the full simulator (discovery, routing, the defense
// backend — LITEWORP by default — and two colluding attackers) and
// reports wall-clock throughput next to the deterministic work counters
// (frames transmitted/delivered, simulator events executed, queue
// high-water mark). The deterministic counters are recorded in
// BENCH_history.json at the repo root: `lw-report check` on a
// --series --json run fails if any of them drifts — a correctness guard
// for hot-path rewrites, not a wall-clock gate (wall-clock fields are
// informational and machine-dependent).
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_hotpath [--runs=1] [--seed=1] [--nodes=50,200,500,1000c]\n"
    "                     [--duration=120] [--json] [--series[=B]] [--watch]\n"
    "                     [--profile]";

namespace {

struct Case {
  std::string name;
  std::size_t nodes = 0;
  bool collisions = true;
};

struct CaseResult {
  Case spec;
  // Deterministic per (seed, runs): must match the BENCH_history.json ledger.
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t events_executed = 0;
  std::size_t max_queue_depth = 0;
  // Deterministic telemetry high-water rollup (--series; zero otherwise).
  std::size_t queue_high_water = 0;
  lw::obs::MemoryGauges memory_high_water;
  // Summed replica run times (machine-dependent, informational).
  double wall_seconds = 0.0;

  double frames_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(frames_transmitted) / wall_seconds
               : 0.0;
  }
  double events_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events_executed) / wall_seconds
               : 0.0;
  }
};

struct NodesSpec {
  std::size_t nodes = 0;
  bool collisions_case = true;
  bool ideal_case = true;
};

/// Parses the --nodes CSV. A bare count expands to both the _collisions
/// and _ideal case; a `c` suffix ("1000c") keeps only the collisions
/// case and an `i` suffix only the ideal one — the large-N entries pay
/// for one variant, not two.
std::vector<NodesSpec> parse_nodes_list(const std::string& csv) {
  std::vector<NodesSpec> specs;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    NodesSpec spec;
    std::string count = item;
    if (!count.empty() && (count.back() == 'c' || count.back() == 'i')) {
      spec.collisions_case = count.back() == 'c';
      spec.ideal_case = count.back() == 'i';
      count.pop_back();
    }
    // Digits only: from_chars takes no sign, so "-3" is not wrapped into a
    // huge count, and a count past size_t is out of range.
    const char* last = count.data() + count.size();
    const auto [end, error] = std::from_chars(count.data(), last, spec.nodes);
    if (error == std::errc::result_out_of_range) {
      throw lw::ConfigError("--nodes entry '" + item + "' is out of range");
    }
    if (count.empty() || error != std::errc() || end != last) {
      throw lw::ConfigError("--nodes entry '" + item + "' is not a count");
    }
    specs.push_back(spec);
  }
  return specs;
}

/// One case's row from its sweep point. A replica the watchdog stopped (or
/// a cancelled one) has no counters, so it fails the bench (exit 1).
CaseResult summarize(const Case& spec,
                     const lw::scenario::SweepPointResult& point) {
  CaseResult result;
  result.spec = spec;
  result.wall_seconds = point.cpu_seconds;
  for (const lw::scenario::RunResult& run : point.replicas) {
    if (run.failed) {
      throw std::runtime_error(spec.name + ": replica seed " +
                               std::to_string(run.seed) + " failed: " +
                               run.fail_reason);
    }
    result.frames_transmitted += run.frames_transmitted;
    result.frames_delivered += run.frames_delivered;
    result.events_executed += run.profile.events_executed;
    result.max_queue_depth =
        std::max(result.max_queue_depth, run.profile.max_queue_depth);
    result.queue_high_water =
        std::max(result.queue_high_water, run.series.queue_high_water);
    result.memory_high_water.max_with(run.series.memory_high_water);
  }
  return result;
}

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 1);
  const double duration = args.get_double("duration", 120.0);
  const std::string nodes_csv = args.get_string("nodes", "50,200,500,1000c");
  lw::cli::reject_unknown(args);

  std::vector<Case> cases;
  for (const NodesSpec& spec : parse_nodes_list(nodes_csv)) {
    std::string stem = "n";
    stem += std::to_string(spec.nodes);
    if (spec.collisions_case) {
      cases.push_back({stem + "_collisions", spec.nodes, true});
    }
    if (spec.ideal_case) {
      cases.push_back({stem + "_ideal", spec.nodes, false});
    }
  }

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  for (const Case& c : cases) {
    spec.points.push_back(
        {c.name, [c](lw::scenario::ExperimentConfig& config) {
           config.node_count = c.nodes;
           config.phy.collisions_enabled = c.collisions;
         }});
  }
  const lw::scenario::SweepResult sweep =
      bench::run_sweep(common, std::move(spec));
  std::vector<CaseResult> results;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    results.push_back(summarize(cases[i], sweep.points[i]));
  }

  if (common.json) {
    bench::JsonRows rows;
    for (const CaseResult& r : results) {
      rows.field("case", r.spec.name)
          .field("nodes", static_cast<double>(r.spec.nodes))
          .field("collisions", r.spec.collisions ? 1.0 : 0.0)
          .field("runs", static_cast<double>(common.runs))
          .field("duration", duration)
          .field("seed", static_cast<double>(common.seed))
          .field("frames_transmitted",
                 static_cast<double>(r.frames_transmitted))
          .field("frames_delivered", static_cast<double>(r.frames_delivered))
          .field("events_executed", static_cast<double>(r.events_executed))
          .field("max_queue_depth", static_cast<double>(r.max_queue_depth));
      if (common.series) {
        // Telemetry high-water rollup: deterministic per seed, so two
        // --series runs diff cleanly through lw-report.
        rows.field("queue_high_water",
                   static_cast<double>(r.queue_high_water))
            .field("mem_slab_slots",
                   static_cast<double>(r.memory_high_water.slab_slots))
            .field("mem_watch_entries",
                   static_cast<double>(r.memory_high_water.watch_entries))
            .field("mem_neighbor_bytes",
                   static_cast<double>(r.memory_high_water.neighbor_bytes))
            .field("mem_defense_storage_bytes",
                   static_cast<double>(
                       r.memory_high_water.defense_storage_bytes));
      }
      rows.field("wall_seconds", r.wall_seconds)
          .field("frames_per_second", r.frames_per_second())
          .field("events_per_second", r.events_per_second());
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Hot-path throughput (full stack, LITEWORP + 2 colluders) ==");
  std::printf("%d run(s) per case, %.0f simulated seconds, base seed %llu\n\n",
              common.runs, duration,
              static_cast<unsigned long long>(common.seed));
  std::printf("%-18s %10s %12s %12s %10s %12s %12s\n", "case", "frames",
              "delivered", "events", "queue<=", "wall [s]", "frames/s");
  for (const CaseResult& r : results) {
    std::printf("%-18s %10llu %12llu %12llu %10zu %12.2f %12.0f\n",
                r.spec.name.c_str(),
                static_cast<unsigned long long>(r.frames_transmitted),
                static_cast<unsigned long long>(r.frames_delivered),
                static_cast<unsigned long long>(r.events_executed),
                r.max_queue_depth, r.wall_seconds, r.frames_per_second());
  }
  std::puts("\ncounters (frames, delivered, events) are deterministic per\n"
            "seed; wall-clock columns are machine-dependent. Check them with\n"
            "`lw-report check` against BENCH_history.json (--series --json).");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_hotpath",
                      kUsage + bench::kStandardFlags, run_bench);
}
