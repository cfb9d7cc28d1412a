#include "sim/kernel.hpp"

#include <stdexcept>
#include <utility>

namespace orte::sim {

bool Kernel::Later::operator()(const HeapItem& a, const HeapItem& b) const {
  if (a.when != b.when) return a.when > b.when;
  if ((a.order_slot >> 32) != (b.order_slot >> 32)) {
    return (a.order_slot >> 32) > (b.order_slot >> 32);
  }
  return a.seq > b.seq;
}

std::uint32_t Kernel::alloc_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[slot].live = true;
  return slot;
}

void Kernel::free_slot(std::uint32_t slot) {
  Slot& s = pool_[slot];
  s.live = false;
  s.action = nullptr;
  s.period = 0;
  s.pending_seq = 0;
  ++s.generation;  // invalidates every outstanding handle to this slot
  free_slots_.push_back(slot);
}

void Kernel::push_occurrence(std::uint32_t slot, Time when,
                             std::uint32_t order) {
  const std::uint64_t seq = next_seq_++;
  pool_[slot].pending_seq = seq;
  const HeapItem item{when, (static_cast<std::uint64_t>(order) << 32) | slot,
                      seq};
  ++pushed_;
  // An occurrence due in a later bucket but within the horizon parks in the
  // wheel while the heap holds at least kWheelMinHeap keys; everything else
  // (a shallow heap, due in the current ~65 µs bucket, or past the ~16.8 ms
  // horizon) goes straight to the heap. A shallow heap sifts a key in a few
  // compares, less than parking it and flushing it later. Where a key waits
  // never affects pop order — the heap comparator alone decides that.
  const std::uint64_t now_bucket =
      static_cast<std::uint64_t>(now_) >> kWheelShift;
  const std::uint64_t when_bucket =
      static_cast<std::uint64_t>(when) >> kWheelShift;
  if (queue_.size() >= kWheelMinHeap && when_bucket != now_bucket &&
      when_bucket - now_bucket < kWheelBuckets) {
    wheel_[when_bucket & (kWheelBuckets - 1)].push_back(item);
    ++wheel_count_;
    ++wheel_scheduled_;
    if (when < wheel_min_) wheel_min_ = when;
  } else {
    queue_.push(item);
  }
  const std::uint64_t depth = queue_.size() + wheel_count_;
  if (depth > peak_depth_) peak_depth_ = depth;
}

void Kernel::flush_wheel(Time limit) {
  while (wheel_count_ != 0 && wheel_min_ <= limit) {
    const std::size_t index =
        (static_cast<std::uint64_t>(wheel_min_) >> kWheelShift) &
        (kWheelBuckets - 1);
    std::vector<HeapItem>& bucket = wheel_[index];
    wheel_count_ -= bucket.size();
    wheel_flushed_ += bucket.size();
    for (const HeapItem& item : bucket) queue_.push(item);
    bucket.clear();
    recompute_wheel_min(index);
  }
}

void Kernel::recompute_wheel_min(std::size_t drained_index) {
  wheel_min_ = kForever;
  if (wheel_count_ == 0) return;
  // Live wheel entries all lie within one horizon window after now, so the
  // circular walk from the drained bucket visits buckets in increasing time
  // order; the first occupied one contains the minimum.
  for (std::size_t step = 1; step <= kWheelBuckets; ++step) {
    const std::vector<HeapItem>& bucket =
        wheel_[(drained_index + step) & (kWheelBuckets - 1)];
    if (bucket.empty()) continue;
    for (const HeapItem& item : bucket) {
      if (item.when < wheel_min_) wheel_min_ = item.when;
    }
    return;
  }
}

EventHandle Kernel::schedule_at(Time when, Action action, EventOrder order) {
  if (when < now_) {
    throw std::invalid_argument("Kernel::schedule_at: time in the past");
  }
  const std::uint32_t slot = alloc_slot();
  Slot& s = pool_[slot];
  s.action = std::move(action);
  s.period = 0;
  s.order = static_cast<std::uint32_t>(order);
  const EventHandle handle(slot, s.generation);
  push_occurrence(slot, when, s.order);
  return handle;
}

EventHandle Kernel::schedule_in(Duration delay, Action action,
                                EventOrder order) {
  return schedule_at(now_ + delay, std::move(action), order);
}

EventHandle Kernel::schedule_periodic(Time first, Duration period,
                                      Action action, EventOrder order) {
  if (period <= 0) {
    throw std::invalid_argument("Kernel::schedule_periodic: period <= 0");
  }
  if (first < now_) {
    throw std::invalid_argument("Kernel::schedule_periodic: first in past");
  }
  const std::uint32_t slot = alloc_slot();
  Slot& s = pool_[slot];
  s.action = std::move(action);
  s.period = period;
  s.order = static_cast<std::uint32_t>(order);
  const EventHandle handle(slot, s.generation);
  push_occurrence(slot, first, s.order);
  return handle;
}

void Kernel::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= pool_.size()) return;
  Slot& s = pool_[handle.slot_];
  if (!s.live || s.generation != handle.generation_) return;  // stale handle
  free_slot(handle.slot_);
  ++cancelled_count_;
}

Time Kernel::run_until(Time horizon) {
  while (true) {
    if (queue_.empty()) {
      if (wheel_count_ == 0 || wheel_min_ > horizon) break;
      flush_wheel(wheel_min_);
      continue;
    }
    // Promote every parked key that could precede (or tie with) the heap
    // front; afterwards the heap front IS the global (when, order, seq)
    // minimum of all pending occurrences.
    if (wheel_count_ != 0 && wheel_min_ <= queue_.top().when) {
      flush_wheel(queue_.top().when);
    }
    const HeapItem item = queue_.top();
    if (item.when > horizon) break;
    queue_.pop();
    ++popped_;
    const auto slot = static_cast<std::uint32_t>(item.order_slot);
    Slot& s = pool_[slot];
    if (!s.live || s.pending_seq != item.seq) {
      ++skipped_dead_;  // cancelled (or recycled) slot: key purged right here
      continue;
    }
    now_ = item.when;
    ++executed_;
    if (s.period > 0) {
      // Run the pooled action in place (moved out for the call: the pool may
      // grow — and this slot may be cancelled or even recycled — while it
      // runs). Re-arm only if the series survived its own occurrence.
      const std::uint32_t generation = s.generation;
      Action action = std::move(s.action);
      s.pending_seq = 0;
      action();
      Slot& after = pool_[slot];
      if (after.live && after.generation == generation) {
        after.action = std::move(action);
        push_occurrence(slot, now_ + after.period, after.order);
      }
    } else {
      Action action = std::move(s.action);
      free_slot(slot);  // before the call: the action may reuse the slot
      action();
    }
  }
  if (now_ < horizon && horizon != kForever) now_ = horizon;
  return now_;
}

KernelCounters Kernel::counters() const {
  KernelCounters c;
  c.pushed = pushed_;
  c.popped = popped_;
  c.executed = executed_;
  c.cancelled = cancelled_count_;
  c.skipped_dead = skipped_dead_;
  c.peak_queue_depth = peak_depth_;
  c.queue_depth = queue_.size() + wheel_count_;
  c.wheel_scheduled = wheel_scheduled_;
  c.wheel_flushed = wheel_flushed_;
  c.pool_slots = pool_.size();
  return c;
}

}  // namespace orte::sim
