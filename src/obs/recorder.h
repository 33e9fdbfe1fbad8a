// The per-run event bus of the observability layer.
//
// One Recorder exists per simulation run (owned by scenario::Network) and
// fans every emitted Event out to its sinks synchronously, on the (single)
// thread driving that run's simulator. Sweep workers each drive their own
// run with its own Recorder, so no cross-thread synchronization is needed
// and trace output stays deterministic for a given seed at any thread
// count.
//
// The Recorder is also the run's one event tally: emit() counts every
// event by kind before dispatching it, and the run metrics, the profile,
// the telemetry series and the counter registry all read that count.
//
// Emit sites guard with
//   if (rec != nullptr && rec->wants(Layer::kX)) rec->emit({...});
// Every scenario::Network run subscribes its stats::MetricsCollector to the
// route, mon and atk layers and its forensics::IncidentBuilder to mon, atk
// and flt, so those always emit; a profiled, sampled or counted run
// listen()s to every layer. Otherwise, for the phy, mac and nbr layers the
// guard is the zero-cost-when-disabled contract: a run that does not
// observe them pays one mask test per site.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/event.h"

namespace lw::obs {

class RunProfiler;

/// Consumer of the event stream (trace writer, span builder, metrics
/// collector, ...). Dispatch is synchronous; sinks must not retain
/// Event::packet.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

class Recorder {
 public:
  /// Registers a sink for the layers in `layer_mask`. Sinks must outlive
  /// the recorder.
  void add_sink(EventSink* sink, std::uint32_t layer_mask = kAllLayers);

  /// Keeps the layers in `layer_mask` live without a sink, so the tally
  /// alone counts them.
  void listen(std::uint32_t layer_mask) { active_mask_ |= layer_mask; }

  /// True when the layer is live (a sink or listen() covers it): the
  /// emit-site guard.
  bool wants(Layer layer) const { return (active_mask_ & layer_bit(layer)) != 0; }

  /// Counts the event, then dispatches it to every sink whose mask covers
  /// its layer.
  void emit(const Event& event);

  /// Events of `kind` emitted so far.
  std::uint64_t count(EventKind kind) const {
    return tally_[static_cast<std::size_t>(kind)];
  }
  /// Events emitted so far per layer (sums of count() over each layer's
  /// kinds).
  std::array<std::uint64_t, kLayerCount> layer_counts() const;

  /// The profiler driving ScopedTimer attribution; null when profiling is
  /// off (timers become no-ops).
  RunProfiler* profiler() const { return profiler_; }
  void set_profiler(RunProfiler* profiler) { profiler_ = profiler; }

 private:
  struct Subscription {
    EventSink* sink;
    std::uint32_t mask;
  };

  std::vector<Subscription> sinks_;
  std::uint32_t active_mask_ = 0;
  std::array<std::uint64_t, kEventKindCount> tally_{};
  RunProfiler* profiler_ = nullptr;
};

}  // namespace lw::obs
