// Discrete-event simulation engine (the ns-2 substitute).
//
// Single-threaded event queue ordered by (time, insertion sequence). The
// insertion-sequence tiebreak makes simultaneous events execute in schedule
// order, which keeps runs deterministic for a given seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/small_fn.h"
#include "util/sim_time.h"

namespace lw::sim {

/// Handle that can cancel a scheduled event. Cancellation is lazy: the
/// event stays in the queue but its action is skipped.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to a scheduled (possibly executed) event.
  bool valid() const { return cancelled_ != nullptr; }

  /// Prevents the action from running if it has not run yet.
  void cancel() {
    if (cancelled_) *cancelled_ = true;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> flag)
      : cancelled_(std::move(flag)) {}
  std::shared_ptr<bool> cancelled_;
};

/// Thrown from run_until()/run_all() when a wall-clock deadline set with
/// set_wall_timeout() expires. Carries the virtual time reached, so the
/// caller can report how far the stuck run got.
class WallClockTimeout : public std::runtime_error {
 public:
  WallClockTimeout(double limit_seconds, Time reached)
      : std::runtime_error("simulation exceeded wall-clock limit"),
        limit_seconds(limit_seconds),
        reached(reached) {}
  double limit_seconds;
  Time reached;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules action at now() + delay. delay must be >= 0. This is the
  /// non-cancellable common case and performs no heap allocation when the
  /// callable's captures fit SmallFn's inline buffer (no control block,
  /// no std::function allocation) — the PHY delivery fan-out depends on
  /// this being cheap.
  void schedule(Duration delay, SmallFn action);

  /// Schedules action at an absolute time >= now(). Same allocation-free
  /// fast path as schedule().
  void schedule_at(Time when, SmallFn action);

  /// Like schedule(), but returns a handle that can cancel the event.
  /// Allocates one shared cancellation flag per event; use plain
  /// schedule() wherever cancellation is not needed.
  EventHandle schedule_cancellable(Duration delay, SmallFn action);

  /// Fused fan-out: collects the k events of one broadcast (the PHY
  /// delivery fan-out) into a single pooled batch represented by ONE heap
  /// entry instead of k. Between fanout_begin() and fanout_commit(), each
  /// fanout_add(when, action) reserves the exact sequence number a plain
  /// schedule_at() would have assigned (so next_seq() keeps working for
  /// eager reception registration), but defers the heap push. commit()
  /// sorts the batch by (when, seq) and enqueues one entry for its head;
  /// the run loop then executes queued-up batch items in place while they
  /// still precede the heap top, re-enqueueing one entry only when a
  /// foreign event (or the horizon) interleaves. Execution order, tick
  /// boundaries, executed() and pending() are all identical to k separate
  /// schedule_at() calls — only the heap traffic shrinks from k pushes +
  /// k pops to one push per interleaving. Batch events are not
  /// cancellable. Nested begins are not allowed (commit first).
  void fanout_begin();
  void fanout_add(Time when, SmallFn action);
  void fanout_commit();

  /// Runs events until the queue is empty or the horizon is passed.
  /// Events with timestamp > horizon remain queued (the clock stops at the
  /// horizon). Returns the number of events executed.
  std::uint64_t run_until(Time horizon);

  /// Runs until the queue drains completely.
  std::uint64_t run_all();

  /// Arms a wall-clock watchdog: if a subsequent run_until()/run_all()
  /// call is still executing `seconds` of real time later, it throws
  /// WallClockTimeout. The check runs once every few thousand events, so
  /// the clean-path cost is a counter decrement. seconds <= 0 disarms.
  /// This is how the sweep harness turns a stuck point into a failed
  /// point instead of a hung worker pool.
  void set_wall_timeout(double seconds);

  /// Called at every crossing of a sim-time bucket boundary with the
  /// boundary time. Fires from the run loop BEFORE the first event at
  /// t >= boundary executes (and once per boundary in a quiet gap), so the
  /// queue and all protocol state reflect exactly the events before the
  /// boundary — the determinism anchor of the telemetry series. The hook
  /// observes; it must not schedule events or otherwise mutate the run.
  using TickHook = std::function<void(Time boundary)>;

  /// Arms the boundary hook with the given bucket width (first boundary at
  /// `interval`). interval <= 0 (or a null hook) disarms; the clean-path
  /// cost is then one predictable branch per event.
  void set_tick_hook(Duration interval, TickHook hook);

  /// Number of events currently queued (including cancelled ones and
  /// fan-out batch items not individually represented on the heap).
  std::size_t pending() const { return queue_.size() + fanout_deferred_; }

  /// High-water mark of pending(): the queue-depth figure the run
  /// profiler reports.
  std::size_t max_pending() const { return max_pending_; }

  /// High-water mark of pending() since the previous call; resets the
  /// window to the current depth. Deterministic (queue-state only) —
  /// the per-bucket queue figure of the telemetry series.
  std::size_t take_window_max_pending() {
    const std::size_t peak = window_max_pending_;
    window_max_pending_ = queue_.size();
    return peak;
  }

  /// Size of the event slab (allocated slots, free or live): the
  /// simulator's own memory high-water in entries, monotone per run.
  std::size_t slab_slots() const { return slots_.size(); }

  /// Total events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Sequence number the next scheduled event will receive. Lets the PHY
  /// stamp eagerly-registered receptions with the seq their begin event
  /// would have carried, preserving tie-breaking behavior exactly.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Sequence number of the event currently executing; kNoEvent outside
  /// the run loop (then every scheduled-in-the-past event counts as done).
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
  std::uint64_t current_seq() const { return current_seq_; }

 private:
  /// Heap entries are 24-byte PODs; the action (and optional cancel flag)
  /// live in a slab indexed by `slot`, so sift-up/down moves never touch
  /// the callable. At ~5M events per large run the heap churn is pure
  /// memcpy of small keys instead of per-move indirect calls. When `batch`
  /// is not kNoBatch the entry stands for a fan-out batch starting at item
  /// index `slot` (the batch's remaining items ride along off-heap).
  struct QueueEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t batch;

    // Min-heap: earliest time first, then earliest insertion.
    bool operator>(const QueueEntry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  static constexpr std::uint32_t kFreeListEnd = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoBatch = ~std::uint32_t{0};

  /// One deferred event of a fused fan-out: carries the sequence number it
  /// reserved at fanout_add() time so interleaving is unchanged.
  struct FanoutItem {
    Time when;
    std::uint64_t seq;
    SmallFn action;
  };

  /// A committed fan-out. Recycled through a freelist (item vectors keep
  /// their capacity).
  struct FanoutBatch {
    std::vector<FanoutItem> items;
    std::uint32_t next_free = kFreeListEnd;
  };

  struct Slot {
    SmallFn action;
    std::shared_ptr<bool> cancelled;  // null when not cancellable
    std::uint32_t next_free = kFreeListEnd;
  };

  void push(Time when, SmallFn action, std::shared_ptr<bool> cancelled);
  std::uint32_t acquire_slot();
  std::uint32_t acquire_batch();
  void release_batch(std::uint32_t batch);
  /// The event loop of run_until() (has_horizon: stop before the first
  /// event past `horizon`) and run_all() (drain the queue). Returns the
  /// number of actions run.
  std::uint64_t run_loop(Time horizon, bool has_horizon);
  /// Executes the popped batch entry's item, then chains through the
  /// batch's remaining items while they precede the heap top and the
  /// horizon (has_horizon gates the check for run_all). Returns the number
  /// of actions run; bumps executed_ itself, one per item, exactly as k
  /// separate heap events would have.
  std::uint64_t run_batch(const QueueEntry& entry, Time horizon,
                          bool has_horizon);
  /// Amortized deadline probe: real check every kWallCheckStride events.
  void check_wall_deadline();
  /// Fires the tick hook for every boundary <= `upto`, in order.
  void fire_ticks(Time upto);

  static constexpr std::uint32_t kWallCheckStride = 4096;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::vector<FanoutBatch> batches_;
  std::uint32_t batch_free_head_ = kFreeListEnd;
  /// Batch being filled between fanout_begin() and fanout_commit().
  std::uint32_t building_batch_ = kNoBatch;
  /// Committed fan-out items not individually on the heap (each live
  /// batch contributes size - 1: its head rides a real queue entry).
  std::size_t fanout_deferred_ = 0;
  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t current_seq_ = kNoEvent;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;
  std::size_t window_max_pending_ = 0;
  /// Sim-time bucket hook; tick_interval_ <= 0 means disarmed.
  Duration tick_interval_ = 0.0;
  TickHook tick_hook_;
  std::uint64_t ticks_fired_ = 0;
  Time next_tick_ = 0.0;
  /// Wall-clock watchdog state; wall_limit_seconds_ <= 0 means disarmed
  /// (the per-event cost is then a single predictable branch).
  double wall_limit_seconds_ = 0.0;
  std::chrono::steady_clock::time_point wall_deadline_{};
  std::uint32_t wall_check_countdown_ = kWallCheckStride;
};

}  // namespace lw::sim
