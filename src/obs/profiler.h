// Run profiling: where a simulation run spends its wall time.
//
// A RunProfiler is a scoped-timer facility giving per-layer SELF wall
// time (the per-layer event counts beside it come from the Recorder's
// tally): ScopedTimer instances nest, and a child's elapsed time is
// subtracted from its parent's attribution, so layer times sum to roughly
// the instrumented total instead of double-counting (a routing handler
// that triggers a PHY transmit attributes the radio work to PHY, not to
// routing).
//
// Timing fields are wall-clock and therefore nondeterministic; everything
// else in a ProfileReport (event counts, max queue depth) is deterministic
// for a given seed. The sweep JSON keeps the two groups segregated so
// determinism diffs stay clean.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/event.h"

namespace lw::obs {

struct LayerProfile {
  std::uint64_t events = 0;     // events emitted by this layer
  double self_seconds = 0.0;    // wall time inside this layer's handlers
};

/// One run's profile, assembled by scenario::Network after the run.
struct ProfileReport {
  bool enabled = false;
  double wall_seconds = 0.0;          // whole-run wall time
  std::uint64_t events_executed = 0;  // simulator events run
  std::size_t max_queue_depth = 0;    // simulator queue high-water mark
  double virtual_seconds = 0.0;       // simulated duration
  std::array<LayerProfile, kLayerCount> layers{};

  double events_per_virtual_second() const {
    return virtual_seconds > 0.0
               ? static_cast<double>(events_executed) / virtual_seconds
               : 0.0;
  }
  double events_per_wall_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events_executed) / wall_seconds
               : 0.0;
  }
};

/// Sum of a sweep point's replica profiles (wall times add, queue depth
/// takes the max).
struct ProfileTotals {
  bool enabled = false;
  int runs = 0;
  double wall_seconds = 0.0;
  std::uint64_t events_executed = 0;
  std::size_t max_queue_depth = 0;
  double virtual_seconds = 0.0;
  std::array<LayerProfile, kLayerCount> layers{};

  void accumulate(const ProfileReport& report);
};

class ScopedTimer;

class RunProfiler {
 public:
  /// Wall time spent so far inside each layer's handlers.
  const std::array<double, kLayerCount>& self_seconds() const {
    return self_seconds_;
  }

 private:
  friend class ScopedTimer;
  void add_self_time(Layer layer, double seconds) {
    self_seconds_[static_cast<std::size_t>(layer)] += seconds;
  }

  std::array<double, kLayerCount> self_seconds_{};
  ScopedTimer* current_ = nullptr;  // innermost open timer (nesting chain)
};

/// RAII layer timer. No-op when constructed with a null profiler, so emit
/// sites can write `ScopedTimer timer(rec ? rec->profiler() : nullptr, L)`
/// unconditionally.
class ScopedTimer {
 public:
  ScopedTimer(RunProfiler* profiler, Layer layer)
      : profiler_(profiler), layer_(layer) {
    if (profiler_ == nullptr) return;
    parent_ = profiler_->current_;
    profiler_->current_ = this;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedTimer() {
    if (profiler_ == nullptr) return;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    profiler_->add_self_time(layer_, elapsed - child_seconds_);
    profiler_->current_ = parent_;
    if (parent_ != nullptr) parent_->child_seconds_ += elapsed;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  RunProfiler* profiler_;
  Layer layer_;
  ScopedTimer* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  double child_seconds_ = 0.0;
};

}  // namespace lw::obs
