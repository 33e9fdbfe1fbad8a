// Per-run observability switches, carried inside ExperimentConfig.
//
// All off by default: the run's Recorder then serves only the metrics
// collector (route, mon and atk layers), and every phy, mac, nbr and flt
// emit site reduces to a mask test. counters, profile and series each
// keep every layer live and read the Recorder's per-kind event tally.
#pragma once

#include <cstdint>

#include "obs/event.h"

namespace lw::obs {

struct Options {
  /// Record a JSONL event trace into RunResult::trace_jsonl.
  bool trace = false;
  /// Layers included in the trace (the event tally always sees all).
  std::uint32_t trace_layers = kAllLayers;
  /// Snapshot the per-kind event counts, named "<layer>.<event>"
  /// (RunResult::registry).
  bool counters = false;
  /// Profile the run (RunResult::profile): per-layer wall time and event
  /// counts, events/second, simulator queue high-water mark.
  bool profile = false;
  /// Sample a deterministic sim-time telemetry series
  /// (RunResult::series): per-bucket layer event rates, queue depth and
  /// high-water, deliveries and their latency, memory gauges.
  bool series = false;
  /// Series bucket width in simulated seconds.
  double series_bucket = 1.0;
  /// Live progress view on stderr while the run executes (wall-clock
  /// throttled; display only — never affects results).
  bool watch = false;
  /// Fold monitor/attack events into labeled detection incidents
  /// (RunResult::incidents / RunResult::forensics): per accused node the
  /// accusing guards, suspicion kinds, peak MalC, detection latency, and
  /// a true/false-positive label cross-checked against attack-layer ground
  /// truth.
  bool forensics = false;
  /// Fold nbr/route/mon/atk events into typed protocol-transaction spans
  /// (RunResult::spans): route-discovery sessions, alibi windows, alert
  /// rounds with the observe/corroborate/isolate latency decomposition,
  /// tunnel sessions, join handshakes. When trace is also on, span
  /// begin/end lines are appended to the JSONL trace.
  bool spans = false;

  bool any() const {
    return trace || counters || profile || series || forensics || spans;
  }
};

}  // namespace lw::obs
