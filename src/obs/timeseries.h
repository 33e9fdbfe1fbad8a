// Deterministic sim-time telemetry series: WHEN inside a run work and
// memory happen, not just end-of-run totals.
//
// A TelemetrySampler turns cumulative run totals into fixed-width sim-time
// buckets. At every bucket boundary the host (scenario::Network) takes a
// BucketSample through the simulator's tick hook: the Recorder's per-layer
// event tally, executed events, deliveries and their summed latency, queue
// depth and in-bucket high-water, and the memory gauges the paper's
// "lightweight" claim is about (event slab occupancy, live WatchBuffer
// entries, neighbor-table bytes, per-defense CostSnapshot storage). A
// bucket's counts are the differences between consecutive samples.
//
// Determinism contract: every deterministic field is keyed on SIMULATED
// time and derived from simulation state only, so a run's series is
// byte-identical per seed at any sweep --threads value and across
// Release/ASan builds — the same contract the traces and counters already
// honor. The one wall-clock field group (per-layer self-time deltas, taken
// from the RunProfiler when profiling is on) is segregated exactly like
// ProfileReport timing: emitted into JSON only when timing is requested.
//
// Bucket semantics: bucket k covers [k*b, (k+1)*b) — left-closed,
// right-open — so an event at exactly a boundary lands in the NEXT bucket.
// Boundaries fire from the simulator loop before the first event at
// t >= boundary executes; a trailing partial bucket captures everything
// after the last full boundary.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.h"

namespace lw::obs {

/// Memory gauges sampled at bucket boundaries (all deterministic).
struct MemoryGauges {
  /// Simulator event-slab slots allocated (live + free); monotone.
  std::uint64_t slab_slots = 0;
  /// Live WatchBuffer entries (transmit records + drop watches), summed
  /// over every monitoring node.
  std::uint64_t watch_entries = 0;
  /// Neighbor-table storage bytes (paper cost model), summed over nodes.
  std::uint64_t neighbor_bytes = 0;
  /// Defense-backend storage bytes (CostSnapshot), summed over nodes.
  std::uint64_t defense_storage_bytes = 0;

  void max_with(const MemoryGauges& other) {
    if (other.slab_slots > slab_slots) slab_slots = other.slab_slots;
    if (other.watch_entries > watch_entries)
      watch_entries = other.watch_entries;
    if (other.neighbor_bytes > neighbor_bytes)
      neighbor_bytes = other.neighbor_bytes;
    if (other.defense_storage_bytes > defense_storage_bytes)
      defense_storage_bytes = other.defense_storage_bytes;
  }
};

/// What the host samples at each boundary (and once more at run end).
/// Counts and sums are run totals so far; the sampler stores deltas.
struct BucketSample {
  /// Events emitted into the Recorder per layer (its tally).
  std::array<std::uint64_t, kLayerCount> layer_events{};
  /// Events executed by the simulator.
  std::uint64_t events_executed = 0;
  /// Data deliveries (route.deliver) and their summed end-to-end latency.
  std::uint64_t deliveries = 0;
  double delivery_latency_sum = 0.0;
  /// Per-layer handler self-time (wall clock; zero unless profiling).
  std::array<double, kLayerCount> self_seconds{};
  /// Queue depth at the boundary instant.
  std::size_t queue_depth = 0;
  /// Queue high-water within the closing bucket
  /// (Simulator::take_window_max_pending).
  std::size_t queue_high_water = 0;
  MemoryGauges memory;
};

/// One closed sim-time bucket.
struct SeriesBucket {
  /// Bucket start (sim seconds); covers [start, start + bucket_seconds).
  Time start = 0.0;
  /// Events emitted into the Recorder per layer within the bucket.
  std::array<std::uint64_t, kLayerCount> layer_events{};
  /// Sum of layer_events (the bucket's overall emission rate).
  std::uint64_t events_emitted = 0;
  /// Simulator events executed within the bucket.
  std::uint64_t events_executed = 0;
  /// Data deliveries within the bucket and their summed end-to-end
  /// latency (per-bucket mean latency).
  std::uint64_t deliveries = 0;
  double delivery_latency_sum = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  MemoryGauges memory;
  /// Per-layer handler self-time within the bucket (wall clock,
  /// NONDETERMINISTIC; JSON emits it only when timing is requested).
  std::array<double, kLayerCount> layer_self_seconds{};
};

/// A finished run's series plus its run-wide high-water rollup.
struct SeriesReport {
  bool enabled = false;
  Duration bucket_seconds = 0.0;
  std::vector<SeriesBucket> buckets;
  /// Max over buckets (deterministic run-wide high-water figures).
  std::size_t queue_high_water = 0;
  MemoryGauges memory_high_water;
};

/// Boundary accumulator. The host owns the sampling loop: it forwards
/// every simulator tick-hook firing to close_bucket() with a freshly taken
/// BucketSample.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(Duration bucket_seconds);

  /// Closes the bucket ending at `boundary` (possibly empty). Boundaries
  /// must arrive in increasing order — the simulator tick hook guarantees
  /// both the order and the once-per-boundary cadence.
  void close_bucket(Time boundary, const BucketSample& sample);

  /// The finished report: every closed bucket plus — when any activity
  /// happened after the last boundary — a trailing partial bucket built
  /// from `final_sample`. Const so RunResult::from_metrics can transcribe
  /// from a const Network.
  SeriesReport report(const BucketSample& final_sample) const;

  Duration bucket_seconds() const { return bucket_seconds_; }

 private:
  /// The bucket from the last close up to `sample`.
  SeriesBucket make_bucket(Time start, const BucketSample& sample) const;

  Duration bucket_seconds_;
  std::vector<SeriesBucket> closed_;
  Time open_start_ = 0.0;
  /// The sample taken at the last close (the delta baseline).
  BucketSample last_;
};

/// Renders a SeriesReport as a JSON object (compact, deterministic field
/// order, round-trippable doubles). `include_timing` adds the wall-clock
/// layer_self_seconds arrays; without it the output is byte-identical per
/// seed at any thread count and across build types. The sweep JSON embeds
/// this verbatim under each replica's "series" key.
std::string series_to_json(const SeriesReport& report, bool include_timing);

}  // namespace lw::obs
