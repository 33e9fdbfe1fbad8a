// Head-to-head ROC benchmark of the defense zoo: every backend swept over
// its own sensitivity ladder, against multiple wormhole modes, on common
// random numbers — precision from the forensic incident labels, recall
// from ground-truth isolations, uniform overhead counters alongside.
//
// Each point is one (attack mode, backend, threshold) cell:
//   liteworp  sweeps malc_threshold C_t (corroborated bar scaled with it)
//   zscore    sweeps z_threshold
//   leash     sweeps sync_error (temporal leash budget)
//   none      a single undefended reference point
//
// Precision counts labeled incidents (forensics: an accused node with at
// least one local detection or isolation, labeled against atk.* ground
// truth); recall is the fraction of truly malicious nodes fully isolated.
// Backends without an accusation channel (leash, none) trivially score
// recall 0 — their row is the prevention column (wormhole routes).
//
// Standard flags (bench_common.h) apply. --check validates the zoo-wide
// invariants (CI perf-smoke): every replica completes, rates stay in
// [0, 1], the undefended baseline never isolates anyone, calibrated
// LITEWORP reaches perfect precision and recall, the Z-score detector
// convicts tunnel endpoints without framing honest nodes at its default
// threshold, and the span-derived detection-latency decomposition
// telescopes against the forensic incident latencies. Output is
// bit-identical at any --threads.
//
// Detection latency decomposition: spans are always on for this bench
// (spec.base.obs.spans), so every cell also reports the alert-round phase
// split pooled over its replicas' raw samples —
//   observe      first suspicion - accused's first malicious act
//   corroborate  first local detection - first suspicion
//   isolate      first isolation - first local detection
// which telescope to the forensic detection latency per round.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "attack/modes.h"
#include "bench_common.h"
#include "defense/defense.h"
#include "obs/metrics_registry.h"
#include "scenario/sweep.h"
#include "util/config.h"

constexpr const char* kUsage =
    "usage: bench_defense_roc [--runs=2] [--seed=950] [--threads=1] [--json]\n"
    "                         [--nodes=60] [--duration=400] [--check]";

namespace {

struct Cell {
  std::string defense;
  /// Swept parameter's dotted name ("-" for the undefended point).
  std::string param;
  double value = 0.0;
  std::function<void(lw::scenario::ExperimentConfig&)> tune;
};

std::vector<Cell> ladder() {
  std::vector<Cell> cells;
  cells.push_back({"none", "-", 0.0, [](lw::scenario::ExperimentConfig& c) {
                     c.defense.name = "none";
                   }});
  for (double sync : {0.0, 1e-6, 1e-5}) {
    cells.push_back({"leash", "leash.sync_error", sync,
                     [sync](lw::scenario::ExperimentConfig& c) {
                       c.defense.name = "leash";
                       c.defense.leash.sync_error = sync;
                     }});
  }
  for (double z : {1.5, 2.5, 3.5}) {
    cells.push_back({"zscore", "zscore.z_threshold", z,
                     [z](lw::scenario::ExperimentConfig& c) {
                       c.defense.name = "zscore";
                       c.defense.zscore.z_threshold = z;
                     }});
  }
  for (int ct : {12, 24, 36}) {
    cells.push_back({"liteworp", "liteworp.malc_threshold",
                     static_cast<double>(ct),
                     [ct](lw::scenario::ExperimentConfig& c) {
                       c.defense.name = "liteworp";
                       c.defense.liteworp.malc_threshold = ct;
                       // Keep the hearsay bar at its calibrated ratio.
                       c.defense.liteworp.corroborated_threshold = ct / 2;
                     }});
  }
  return cells;
}

/// One cell's reduced outputs, summed over its seed replicas.
struct RocRow {
  std::string mode;
  const Cell* cell = nullptr;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  double recall = 0.0;  // isolated malicious / malicious, replica-averaged
  double wormhole_routes = 0.0;
  double false_isolations = 0.0;
  lw::defense::CostSnapshot cost;  // replica-summed
  bool any_failed = false;
  /// Raw span samples pooled across replicas (exactly re-summarizable).
  std::vector<double> observe;
  std::vector<double> corroborate;
  std::vector<double> isolate;
  std::vector<double> latency;
  /// Forensic latency population for the telescoping cross-check.
  std::uint64_t forensic_latency_samples = 0;
  double forensic_latency_sum = 0.0;

  double precision() const {
    const std::uint64_t total = true_positives + false_positives;
    return total == 0 ? 1.0
                      : static_cast<double>(true_positives) /
                            static_cast<double>(total);
  }
};

RocRow reduce(const std::string& mode, const Cell& cell,
              const lw::scenario::SweepPointResult& point) {
  RocRow row;
  row.mode = mode;
  row.cell = &cell;
  double recall_sum = 0.0;
  for (const auto& r : point.replicas) {
    if (r.failed) {
      row.any_failed = true;
      continue;
    }
    row.true_positives += r.forensics.true_positives;
    row.false_positives += r.forensics.false_positives;
    recall_sum += r.malicious_count
                      ? static_cast<double>(r.malicious_isolated) /
                            static_cast<double>(r.malicious_count)
                      : 1.0;
    row.cost.accumulate(r.defense_cost);
    const auto& spans = r.spans;
    row.observe.insert(row.observe.end(), spans.observe.samples.begin(),
                       spans.observe.samples.end());
    row.corroborate.insert(row.corroborate.end(),
                           spans.corroborate.samples.begin(),
                           spans.corroborate.samples.end());
    row.isolate.insert(row.isolate.end(), spans.isolate.samples.begin(),
                       spans.isolate.samples.end());
    row.latency.insert(row.latency.end(), spans.detection_latencies.begin(),
                       spans.detection_latencies.end());
    row.forensic_latency_samples += r.forensics.latency_samples;
    row.forensic_latency_sum += r.forensics.mean_detection_latency *
                                static_cast<double>(r.forensics.latency_samples);
  }
  const auto n = static_cast<double>(point.replicas.size());
  row.recall = recall_sum / n;
  row.wormhole_routes = point.aggregate.wormhole_routes;
  row.false_isolations = point.aggregate.false_isolations;
  return row;
}

double sum_of(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return total;
}

int check_rows(const std::vector<RocRow>& rows) {
  int failures = 0;
  const auto fail = [&failures](const RocRow& row, const char* what) {
    std::fprintf(stderr, "CHECK FAILED [%s / %s %s=%g]: %s\n",
                 row.mode.c_str(), row.cell->defense.c_str(),
                 row.cell->param.c_str(), row.cell->value, what);
    ++failures;
  };
  for (const RocRow& row : rows) {
    // Span-phase bookkeeping: the three phases are recorded together, the
    // span latency population must be exactly the forensic one, and when
    // every latency round has a complete phase timeline the decomposition
    // telescopes: observe + corroborate + isolate == detection latency.
    if (row.observe.size() != row.corroborate.size() ||
        row.observe.size() != row.isolate.size()) {
      fail(row, "span phase sample counts diverge");
    }
    if (row.latency.size() != row.forensic_latency_samples) {
      fail(row, "span detection-latency population != forensic population");
    }
    if (std::abs(sum_of(row.latency) - row.forensic_latency_sum) > 1e-6) {
      fail(row, "span detection-latency sum != forensic latency sum");
    }
    if (row.observe.size() == row.latency.size() &&
        std::abs(sum_of(row.observe) + sum_of(row.corroborate) +
                 sum_of(row.isolate) - sum_of(row.latency)) > 1e-6) {
      fail(row, "phase decomposition does not telescope to the latency");
    }
    if (row.any_failed) fail(row, "replica failed to complete");
    if (row.precision() < 0.0 || row.precision() > 1.0 ||
        row.recall < 0.0 || row.recall > 1.0) {
      fail(row, "precision/recall out of [0, 1]");
    }
    if (row.cell->defense == "none") {
      if (row.recall != 0.0) fail(row, "undefended baseline isolated a node");
      if (row.cost.control_messages != 0)
        fail(row, "undefended baseline sent control traffic");
    }
    if (row.cell->defense == "liteworp" && row.cell->value == 24.0) {
      if (row.recall != 1.0)
        fail(row, "calibrated LITEWORP must isolate every colluder");
      if (row.false_positives != 0)
        fail(row, "calibrated LITEWORP must not accuse honest nodes");
    }
    if (row.cell->defense == "zscore" && row.cell->value == 2.5) {
      if (row.true_positives == 0)
        fail(row, "default-threshold zscore must convict tunnel endpoints");
      if (row.false_isolations != 0.0)
        fail(row, "default-threshold zscore must not isolate honest nodes");
    }
    if (row.cell->defense != "none" && row.cost.frames_observed == 0 &&
        row.cell->defense != "leash") {
      fail(row, "active detector observed no frames");
    }
  }
  return failures;
}

}  // namespace

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 2, 950);
  const double duration = args.get_double("duration", 400.0);
  const std::size_t nodes = args.get_count("nodes", 60);
  const bool check = args.get_bool("check", false);
  lw::cli::reject_unknown(args);

  const std::vector<Cell> cells = ladder();
  const struct {
    const char* label;
    lw::attack::WormholeMode mode;
  } modes[] = {
      {"encapsulation", lw::attack::WormholeMode::kEncapsulation},
      {"out_of_band", lw::attack::WormholeMode::kOutOfBand},
  };

  lw::scenario::SweepSpec spec;
  spec.base = lw::scenario::ExperimentConfig::table2_defaults();
  spec.base.node_count = nodes;
  spec.base.duration = duration;
  spec.base.malicious_count = 2;
  // Precision needs the labeled incident stream even when no trace file
  // was requested; the latency decomposition needs the span folding.
  spec.base.obs.forensics = true;
  spec.base.obs.spans = true;
  for (const auto& m : modes) {
    for (const Cell& cell : cells) {
      const auto mode = m.mode;
      const auto tune = cell.tune;
      spec.points.push_back(
          {std::string(m.label) + " / " + cell.defense + " " + cell.param +
               "=" + std::to_string(cell.value),
           [mode, tune](lw::scenario::ExperimentConfig& c) {
             c.attack.mode = mode;
             tune(c);
           },
           0});
    }
  }
  const auto result = bench::run_sweep(common, std::move(spec));

  std::vector<RocRow> rows;
  std::size_t p = 0;
  for (const auto& m : modes) {
    for (const Cell& cell : cells) {
      rows.push_back(reduce(m.label, cell, result.points[p++]));
    }
  }

  if (check) {
    const int failures = check_rows(rows);
    if (failures) {
      std::fprintf(stderr, "bench_defense_roc --check: %d failure(s)\n",
                   failures);
      return 1;
    }
    std::puts("bench_defense_roc --check: all invariants hold");
    return 0;
  }

  if (common.json) {
    bench::JsonRows out;
    for (const RocRow& row : rows) {
      out.field("mode", row.mode)
          .field("defense", row.cell->defense)
          .field("param", row.cell->param)
          .field("value", row.cell->value)
          .field("true_positives", static_cast<double>(row.true_positives))
          .field("false_positives", static_cast<double>(row.false_positives))
          .field("precision", row.precision())
          .field("recall", row.recall)
          .field("wormhole_routes", row.wormhole_routes)
          .field("false_isolations", row.false_isolations)
          .field("frames_observed",
                 static_cast<double>(row.cost.frames_observed))
          .field("admission_checks",
                 static_cast<double>(row.cost.admission_checks))
          .field("admission_rejects",
                 static_cast<double>(row.cost.admission_rejects))
          .field("control_messages",
                 static_cast<double>(row.cost.control_messages))
          .field("control_bytes", static_cast<double>(row.cost.control_bytes))
          .field("storage_bytes", static_cast<double>(row.cost.storage_bytes));
      const auto latency = lw::obs::summarize_samples(row.latency);
      const auto observe = lw::obs::summarize_samples(row.observe);
      const auto corroborate = lw::obs::summarize_samples(row.corroborate);
      const auto isolate = lw::obs::summarize_samples(row.isolate);
      out.field("detection_rounds", static_cast<double>(latency.count))
          .field("latency_mean", latency.mean)
          .field("latency_p50", latency.p50)
          .field("latency_p95", latency.p95)
          .field("observe_mean", observe.mean)
          .field("observe_p50", observe.p50)
          .field("observe_p95", observe.p95)
          .field("corroborate_mean", corroborate.mean)
          .field("corroborate_p50", corroborate.p50)
          .field("corroborate_p95", corroborate.p95)
          .field("isolate_mean", isolate.mean)
          .field("isolate_p50", isolate.p50)
          .field("isolate_p95", isolate.p95);
      out.end_row();
    }
    std::puts(out.str().c_str());
    return 0;
  }

  std::puts("== Defense zoo ROC: precision/recall/overhead per backend ==");
  std::printf("%zu nodes, %.0f s, M = 2 colluders, %d run(s) per cell, "
              "%d thread(s), %.1f s wall\n\n",
              nodes, duration, common.runs, result.threads_used,
              result.wall_seconds);
  std::printf("%-14s %-9s %-26s %-5s %-5s %-6s %-7s %-7s %-9s %-9s %s\n",
              "mode", "defense", "threshold", "tp", "fp", "prec", "recall",
              "whroute", "alerts", "alert_B", "storage_B");
  for (const RocRow& row : rows) {
    char threshold[32];
    std::snprintf(threshold, sizeof(threshold), "%s=%g",
                  row.cell->param.c_str(), row.cell->value);
    std::printf("%-14s %-9s %-26s %-5llu %-5llu %-6.2f %-7.2f %-7.1f "
                "%-9llu %-9llu %llu\n",
                row.mode.c_str(), row.cell->defense.c_str(), threshold,
                static_cast<unsigned long long>(row.true_positives),
                static_cast<unsigned long long>(row.false_positives),
                row.precision(), row.recall, row.wormhole_routes,
                static_cast<unsigned long long>(row.cost.control_messages),
                static_cast<unsigned long long>(row.cost.control_bytes),
                static_cast<unsigned long long>(row.cost.storage_bytes));
  }
  std::puts("\n== Detection latency decomposition (sim s, pooled over "
            "replicas) ==");
  std::printf("%-14s %-9s %-26s %-7s %-8s %-8s %-24s %-24s %s\n", "mode",
              "defense", "threshold", "rounds", "lat_p50", "lat_p95",
              "observe(mean/p50/p95)", "corrob(mean/p50/p95)",
              "isolate(mean/p50/p95)");
  for (const RocRow& row : rows) {
    if (row.latency.empty()) continue;
    const auto latency = lw::obs::summarize_samples(row.latency);
    const auto observe = lw::obs::summarize_samples(row.observe);
    const auto corroborate = lw::obs::summarize_samples(row.corroborate);
    const auto isolate = lw::obs::summarize_samples(row.isolate);
    char threshold[32];
    std::snprintf(threshold, sizeof(threshold), "%s=%g",
                  row.cell->param.c_str(), row.cell->value);
    std::printf("%-14s %-9s %-26s %-7llu %-8.3f %-8.3f "
                "%6.3f/%6.3f/%6.3f   %6.3f/%6.3f/%6.3f   "
                "%6.3f/%6.3f/%6.3f\n",
                row.mode.c_str(), row.cell->defense.c_str(), threshold,
                static_cast<unsigned long long>(latency.count), latency.p50,
                latency.p95, observe.mean, observe.p50, observe.p95,
                corroborate.mean, corroborate.p50, corroborate.p95,
                isolate.mean, isolate.p50, isolate.p95);
  }

  std::puts(
      "\nexpected shape: calibrated LITEWORP (C_t=24) sits at the (1, 1)\n"
      "corner of the ROC plane for both tunnel modes; loosening C_t to 12\n"
      "trades precision for latency, tightening to 36 delays isolation.\n"
      "The Z-score detector reaches the tunnel endpoints statistically —\n"
      "recall rises as z_threshold drops, with honest-node convictions the\n"
      "price below ~1.5. The leash never accuses (recall 0) but its\n"
      "wormhole-route column shows the prevention it buys per sync-error\n"
      "budget; 'none' anchors the undefended corner.");
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_defense_roc",
                      kUsage + bench::kStandardFlags, run_bench);
}
