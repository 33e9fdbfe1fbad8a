#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>


namespace lw::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kFreeListEnd) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void Simulator::push(Time when, SmallFn action,
                     std::shared_ptr<bool> cancelled) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.cancelled = std::move(cancelled);
  queue_.push(QueueEntry{when, next_seq_++, slot, kNoBatch});
  if (pending() > max_pending_) max_pending_ = pending();
  if (pending() > window_max_pending_) window_max_pending_ = pending();
}

std::uint32_t Simulator::acquire_batch() {
  if (batch_free_head_ != kFreeListEnd) {
    const std::uint32_t batch = batch_free_head_;
    batch_free_head_ = batches_[batch].next_free;
    return batch;
  }
  const std::uint32_t batch = static_cast<std::uint32_t>(batches_.size());
  batches_.emplace_back();
  return batch;
}

void Simulator::release_batch(std::uint32_t batch) {
  batches_[batch].items.clear();  // keeps capacity for the next broadcast
  batches_[batch].next_free = batch_free_head_;
  batch_free_head_ = batch;
}

void Simulator::fanout_begin() {
  assert(building_batch_ == kNoBatch && "fanout_begin without commit");
  building_batch_ = acquire_batch();
}

void Simulator::fanout_add(Time when, SmallFn action) {
  assert(building_batch_ != kNoBatch && "fanout_add outside a fan-out");
  if (when < now_) throw std::invalid_argument("fanout_add in the past");
  batches_[building_batch_].items.push_back(
      FanoutItem{when, next_seq_++, std::move(action)});
}

void Simulator::fanout_commit() {
  assert(building_batch_ != kNoBatch && "fanout_commit without begin");
  const std::uint32_t batch = building_batch_;
  building_batch_ = kNoBatch;
  auto& items = batches_[batch].items;
  if (items.empty()) {
    release_batch(batch);
    return;
  }
  // Items were added in receiver order but execute in event order; the
  // sort restores exactly the order k separate heap pushes would pop in.
  std::sort(items.begin(), items.end(),
            [](const FanoutItem& a, const FanoutItem& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  queue_.push(QueueEntry{items[0].when, items[0].seq, 0, batch});
  fanout_deferred_ += items.size() - 1;
  if (pending() > max_pending_) max_pending_ = pending();
  if (pending() > window_max_pending_) window_max_pending_ = pending();
}

std::uint64_t Simulator::run_batch(const QueueEntry& entry, Time horizon,
                                   bool has_horizon) {
  std::size_t idx = entry.slot;
  std::uint64_t count = 0;
  for (;;) {
    // Re-index on every lap: the action may commit a new fan-out, and
    // growing batches_ can relocate this batch.
    FanoutItem& item = batches_[entry.batch].items[idx];
    assert(item.when >= now_ && "fan-out batch went backwards");
    now_ = item.when;
    SmallFn action = std::move(item.action);
    current_seq_ = item.seq;
    action();
    current_seq_ = kNoEvent;
    ++count;
    ++executed_;
    check_wall_deadline();
    ++idx;
    if (idx == batches_[entry.batch].items.size()) {
      release_batch(entry.batch);
      break;
    }
    // The next item is no longer covered by the popped entry: it either
    // chains in place (still earliest) or goes back on the heap.
    const FanoutItem& next = batches_[entry.batch].items[idx];
    --fanout_deferred_;
    const bool yield =
        (has_horizon && next.when > horizon) ||
        (!queue_.empty() &&
         QueueEntry{next.when, next.seq, 0, kNoBatch} > queue_.top());
    if (yield) {
      queue_.push(QueueEntry{next.when, next.seq,
                             static_cast<std::uint32_t>(idx), entry.batch});
      break;
    }
    // Chaining executes the item the run loop would pop next anyway; close
    // any tick boundaries it crosses, exactly as the loop would have.
    if (tick_interval_ > 0.0 && next.when >= next_tick_) {
      fire_ticks(next.when);
    }
  }
  return count;
}

void Simulator::set_tick_hook(Duration interval, TickHook hook) {
  if (interval <= 0.0 || !hook) {
    tick_interval_ = 0.0;
    tick_hook_ = nullptr;
    return;
  }
  tick_interval_ = interval;
  tick_hook_ = std::move(hook);
  ticks_fired_ = 0;
  next_tick_ = interval;
}

void Simulator::fire_ticks(Time upto) {
  while (next_tick_ <= upto) {
    tick_hook_(next_tick_);
    ++ticks_fired_;
    // Boundary k+1 sits at (k+1) * interval; computed by multiplication,
    // not accumulation, so long runs do not drift off the bucket grid.
    next_tick_ = static_cast<double>(ticks_fired_ + 1) * tick_interval_;
  }
}

void Simulator::schedule(Duration delay, SmallFn action) {
  if (delay < 0) throw std::invalid_argument("negative schedule delay");
  push(now_ + delay, std::move(action), nullptr);
}

void Simulator::schedule_at(Time when, SmallFn action) {
  if (when < now_) throw std::invalid_argument("schedule_at in the past");
  push(when, std::move(action), nullptr);
}

EventHandle Simulator::schedule_cancellable(Duration delay,
                                            SmallFn action) {
  if (delay < 0) throw std::invalid_argument("negative schedule delay");
  auto flag = std::make_shared<bool>(false);
  push(now_ + delay, std::move(action), flag);
  return EventHandle(std::move(flag));
}

void Simulator::set_wall_timeout(double seconds) {
  wall_limit_seconds_ = seconds;
  wall_check_countdown_ = kWallCheckStride;
  if (seconds > 0.0) {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  }
}

void Simulator::check_wall_deadline() {
  if (wall_limit_seconds_ <= 0.0) return;
  if (--wall_check_countdown_ != 0) return;
  wall_check_countdown_ = kWallCheckStride;
  if (std::chrono::steady_clock::now() >= wall_deadline_) {
    throw WallClockTimeout(wall_limit_seconds_, now_);
  }
}

std::uint64_t Simulator::run_until(Time horizon) {
  const std::uint64_t count = run_loop(horizon, /*has_horizon=*/true);
  if (now_ < horizon) now_ = horizon;
  return count;
}

std::uint64_t Simulator::run_all() {
  return run_loop(kTimeZero, /*has_horizon=*/false);
}

std::uint64_t Simulator::run_loop(Time horizon, bool has_horizon) {
  std::uint64_t count = 0;
  while (!queue_.empty() && (!has_horizon || queue_.top().when <= horizon)) {
    const QueueEntry entry = queue_.top();
    // Bucket boundaries close BEFORE the first event at t >= boundary pops:
    // the hook sees the queue (and every sink) exactly as of the boundary.
    if (tick_interval_ > 0.0 && entry.when >= next_tick_) {
      fire_ticks(entry.when);
    }
    queue_.pop();
    assert(entry.when >= now_ && "event queue went backwards");
    if (entry.batch != kNoBatch) {
      count += run_batch(entry, horizon, has_horizon);
      continue;
    }
    now_ = entry.when;
    // Move the payload out and recycle the slot BEFORE executing: the
    // action may schedule (and thus reallocate the slab).
    Slot& slot = slots_[entry.slot];
    SmallFn action = std::move(slot.action);
    const bool skip = slot.cancelled && *slot.cancelled;
    slot.cancelled.reset();
    slot.next_free = free_head_;
    free_head_ = entry.slot;
    if (skip) continue;
    current_seq_ = entry.seq;
    action();
    current_seq_ = kNoEvent;
    ++count;
    ++executed_;
    check_wall_deadline();
  }
  return count;
}

}  // namespace lw::sim
