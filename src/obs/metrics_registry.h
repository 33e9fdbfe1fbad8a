// Named counters and histograms of a run.
//
// Every event kind becomes a counter named "<layer>.<event>" (e.g.
// "phy.tx", "mon.isolation"), read from the Recorder's tally; names are
// materialized only when a snapshot is taken. The RegistrySink adds the
// histograms of value-carrying events ("route.deliver_latency",
// "mac.backoff_delay").
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
/// Every percentile in the repo (histograms, span summaries, run latency)
/// goes through this one routine.
double sorted_percentile(const std::vector<double>& sorted, double p);

/// The O(1) exact aggregates of a Histogram: everything that does not need
/// the reservoir. Reading never touches (or perturbs) the reservoir state,
/// so sampling a histogram mid-run cannot change its final percentiles.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Bounded-memory histogram: exact count/min/max/mean plus a fixed-size
/// uniform reservoir (Vitter's Algorithm R, deterministic — the RNG is a
/// splitmix64 stream seeded from the run seed) that the summary
/// percentiles are computed over. Up to `capacity` samples the reservoir
/// holds everything, so percentiles are bit-identical to an unbounded
/// sample-keeping histogram (the pre-reservoir behavior); beyond that,
/// memory stays flat and percentiles become a uniform-subsample estimate.
/// Percentiles come from sorted_percentile.
class Histogram {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  Histogram() : Histogram(0) {}
  explicit Histogram(std::uint64_t seed,
                     std::size_t capacity = kDefaultCapacity);

  void add(double sample);
  std::uint64_t count() const { return count_; }
  std::size_t capacity() const { return capacity_; }
  HistogramSummary summary() const;

  /// Cheap exact aggregates (count/min/max/sum) without sorting or copying
  /// the reservoir; safe to call at any frequency.
  HistogramSnapshot snapshot() const { return {count_, min_, max_, sum_}; }

 private:
  std::uint64_t next_random();

  std::size_t capacity_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t rng_state_;
  /// The reservoir; all samples while count_ <= capacity_.
  std::vector<double> samples_;
};

/// Deterministic, by-name snapshot of a run's registry; stored in
/// RunResult and summed across replicas for the sweep JSON.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSummary> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }

  /// Sums `other`'s counters into this snapshot (histograms are per-run
  /// and are not merged).
  void add_counters(const RegistrySnapshot& other);
};

/// EventSink feeding the value-carrying histograms. `seed` (the run seed)
/// makes the histogram reservoirs deterministic per run at any sweep
/// thread count.
class RegistrySink final : public EventSink {
 public:
  /// The layers whose events carry histogram values.
  static constexpr std::uint32_t kLayers =
      layer_bit(Layer::kRouting) | layer_bit(Layer::kMac);

  explicit RegistrySink(std::uint64_t seed = 0)
      : deliver_latency_(seed), backoff_delay_(seed ^ 0x9E3779B97F4A7C15ull) {}

  void on_event(const Event& event) override;

  /// Names the counters of `tally` (zero-count kinds omitted) beside this
  /// sink's histograms (empty ones omitted).
  RegistrySnapshot snapshot(const Recorder& tally) const;

 private:
  Histogram deliver_latency_;
  Histogram backoff_delay_;
};

}  // namespace lw::obs
