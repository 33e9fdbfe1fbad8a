// Parallel sweep engine: a grid of (config point x seed replica) jobs
// fanned across a worker pool, reduced into per-point Aggregates.
//
// Determinism guarantee: each job's config depends only on the spec (seeds
// are assigned by grid index, never by completion order) and every job runs
// its own independent Simulator, so per-point results are bit-identical for
// every thread count. Reduction happens in spec order after all jobs have
// finished; threads only change wall-clock time.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/runner.h"

namespace lw::scenario {

/// One grid point: a label plus a mutation applied to the base config.
struct SweepPoint {
  std::string label;
  /// Applied to a copy of the base config; null keeps the base as-is.
  std::function<void(ExperimentConfig&)> mutate;
  /// Added to the spec's base_seed for this point's replicas. Leave 0 to
  /// share seeds across points (paired comparisons on common random
  /// numbers, the benches' default).
  std::uint64_t seed_offset = 0;
};

struct SweepSpec {
  ExperimentConfig base;
  std::vector<SweepPoint> points;
  /// Seed replicas per point; replica i runs seed base_seed + offset + i.
  int runs = 1;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 means one per hardware thread, 1 runs inline on the
  /// calling thread (no pool at all).
  int threads = 1;
  /// Invoked after each finished job with (jobs_done, jobs_total). Runs on
  /// whichever worker finished the job, under the engine's lock: keep it
  /// cheap and thread-agnostic (e.g. a progress line to stderr).
  std::function<void(std::size_t, std::size_t)> progress;
  /// Invoked exactly once per finished replica in strict spec order
  /// (point 0 replica 0, 1, ...; then point 1, ...) regardless of worker
  /// interleaving, under the engine's lock. The RunResult is mutable so the
  /// callback can stream-and-clear heavy fields (trace_jsonl) before the
  /// engine stores the replica: streamed output is byte-identical at any
  /// thread count. Not called once a job has errored, and not called for
  /// replicas skipped by cancellation.
  std::function<void(std::size_t point, std::size_t replica, RunResult&)>
      drain;

  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointed-to flag
  /// becomes nonzero, jobs not yet started are skipped (their replicas are
  /// marked failed with reason "cancelled"), in-flight jobs finish and are
  /// drained normally, and run_sweep returns with `interrupted` set — so
  /// an interrupted --json / --trace sweep still emits complete,
  /// parseable output for every point that ran.
  const volatile std::sig_atomic_t* cancel = nullptr;

  /// Per-replica wall-clock watchdog (seconds; 0 disables): a run still
  /// executing this much real time later is aborted via
  /// sim::WallClockTimeout and recorded as a failed replica instead of
  /// hanging the worker pool forever.
  double run_timeout_seconds = 0.0;
};

/// One swept point's outputs, in spec order.
struct SweepPointResult {
  std::string label;
  Aggregate aggregate;
  /// Raw per-replica results in seed order (for series/deadline
  /// post-processing the Aggregate does not cover).
  std::vector<RunResult> replicas;
  /// Summed replica run times: the serial cost of this point.
  double cpu_seconds = 0.0;
  /// Summed replica event counters (empty unless base.obs.counters).
  obs::RegistrySnapshot counters;
  /// Summed replica profiles (enabled mirrors base.obs.profile).
  obs::ProfileTotals profile;
};

struct SweepResult {
  std::vector<SweepPointResult> points;
  /// End-to-end wall-clock of the whole sweep.
  double wall_seconds = 0.0;
  int threads_used = 1;
  /// True when the spec's cancel flag fired before every job completed.
  bool interrupted = false;
  /// Jobs skipped due to cancellation (their replicas carry failed=true).
  std::size_t jobs_skipped = 0;
};

/// Runs |points| x runs independent simulations. Each point's config is
/// finalized and validated before any job starts; config errors throw
/// std::invalid_argument from the calling thread.
SweepResult run_sweep(const SweepSpec& spec);

/// Machine-readable dump: point labels, Aggregates, per-replica counters,
/// and (when enabled) per-point event counters and profiler totals.
/// Timing fields (wall/self seconds, threads) are emitted only with
/// `include_timing`, so the default output is byte-identical across
/// thread counts (diff two runs to check determinism); deterministic
/// profile fields (event counts, queue depth) are always included.
std::string to_json(const SweepResult& result, bool include_timing = false);

}  // namespace lw::scenario
