// Named counters of a run, and the sample summaries every latency report
// shares.
//
// Every event kind becomes a counter named "<layer>.<event>" (e.g.
// "phy.tx", "mon.isolation"), read from the Recorder's tally; names are
// materialized only when a snapshot is taken.
//
// Snapshots use std::map so iteration (and hence JSON emission) is in
// deterministic name order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace lw::obs {

struct HistogramSummary {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// p-th percentile (p in [0, 100]) of a non-empty ascending sample: rank
/// p/100 * (n - 1), interpolated linearly between the samples either side.
/// Every percentile in the repo (span summaries, run latency) goes through
/// this one routine.
double sorted_percentile(const std::vector<double>& sorted, double p);

/// Exact summary of a raw sample vector (all zero when empty). Span and
/// latency sample counts are small enough that no reservoir is needed, so
/// sweeps can pool the raw samples across replicas and re-summarize
/// exactly.
HistogramSummary summarize_samples(const std::vector<double>& samples);

/// Deterministic, by-name snapshot of a run's event counters; stored in
/// RunResult and summed across replicas for the sweep JSON.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;

  /// Names the counters of `tally` (zero-count kinds omitted).
  static RegistrySnapshot from(const Recorder& tally);

  bool empty() const { return counters.empty(); }

  /// Sums `other`'s counters into this snapshot.
  void add_counters(const RegistrySnapshot& other);
};

}  // namespace lw::obs
