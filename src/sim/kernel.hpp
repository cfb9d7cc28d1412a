// Discrete-event simulation kernel.
//
// The kernel owns a priority queue of timestamped events. Determinism is a
// hard requirement (experiments compare isolation-on vs isolation-off runs
// pairwise), so ties are broken by (time, priority, insertion sequence) —
// never by pointer values or hash order.
//
// The storage layer is built for cache residency (see DESIGN.md, "Kernel
// internals"):
//  * Events live once in a generation-tagged dense slot pool; the comparison
//    heap holds only 24-byte keys {when, order|slot, seq}. Cancellation is an
//    array write (no hashing), and stale handles — double-cancel,
//    cancel-after-fire, a handle whose slot was recycled — are rejected by
//    the generation tag.
//  * While the heap is deep, occurrences due beyond the current ~65 µs time
//    bucket are parked in a 256-bucket timer wheel and promoted into the
//    heap only when simulated time approaches, so a steady-state periodic
//    workload (thousands of task alarms) stops churning the comparison heap.
//    Occurrences beyond the wheel horizon, due in the current bucket, or
//    pushed while the heap is shallow go straight to the heap — the wheel
//    only defers *when* a key enters the heap, never changes the (time,
//    priority, sequence) pop order, so event ordering is bit-exact with and
//    without it.
//  * Periodic re-arm reuses the pooled action in place: no per-occurrence
//    closure, shared_ptr hop, or allocation.
//
// Time-travel policy: `schedule_at` (and `schedule_in` with a negative
// delay) THROWS std::invalid_argument when `when < now()`. Scheduling into
// the past is always an integration bug, and silently clamping it to now()
// would let the bug masquerade as a legitimate same-instant event and
// perturb deterministic runs; tests pin this behavior.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace orte::sim {

/// Handle used to cancel a scheduled event: {slot index, generation}. The
/// generation is bumped whenever the slot is freed (fire or cancel), so a
/// stale handle — even one whose slot has been recycled for a new event —
/// is rejected in O(1). Cancelling is an array write, no hashing.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return slot_ != kInvalidSlot; }

 private:
  friend class Kernel;
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t generation_ = 0;
};

/// Event priorities: lower value runs first among events at the same instant.
/// Hardware-ish activities (bus slot boundaries) run before software dispatch
/// so that, e.g., a frame arriving at time t is visible to a task released at
/// the same t.
enum class EventOrder : int {
  kHardware = 0,
  kKernel = 1,
  kDefault = 2,
  kSoftware = 3,
  kObserver = 4,
};

/// Kernel hot-path counters (perf diagnostics; see Kernel::counters()).
struct KernelCounters {
  std::uint64_t pushed = 0;        ///< Occurrences scheduled (wheel or heap).
  std::uint64_t popped = 0;        ///< Events removed (executed + dead).
  std::uint64_t executed = 0;      ///< Events whose action ran.
  std::uint64_t cancelled = 0;     ///< Effective cancel() calls.
  std::uint64_t skipped_dead = 0;  ///< Dead events purged at pop.
  std::uint64_t peak_queue_depth = 0;  ///< Peak of heap + wheel entries.
  std::uint64_t queue_depth = 0;       ///< Current heap + wheel entries.
  std::uint64_t wheel_scheduled = 0;   ///< Occurrences parked in the wheel.
  std::uint64_t wheel_flushed = 0;     ///< Entries promoted wheel -> heap.
  std::uint64_t pool_slots = 0;        ///< Current slot-pool capacity.
};

class Kernel {
 public:
  using Action = std::function<void()>;

  /// Heap depth from which an occurrence due in a later wheel bucket parks
  /// in the wheel; below it every key goes straight to the heap. Picked by
  /// a sweep of 8-128 (EXPERIMENTS.md, A4c).
  static constexpr std::size_t kWheelMinHeap = 32;

  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` at absolute time `when`. Throws std::invalid_argument
  /// if `when < now()` — see the time-travel policy in the header comment.
  EventHandle schedule_at(Time when, Action action,
                          EventOrder order = EventOrder::kDefault);

  /// Schedule `action` after `delay` nanoseconds. A negative delay throws
  /// (it would target the past).
  EventHandle schedule_in(Duration delay, Action action,
                          EventOrder order = EventOrder::kDefault);

  /// Schedule `action` every `period` ns, first at `first`. Runs until the
  /// simulation horizon; handle cancels future occurrences.
  EventHandle schedule_periodic(Time first, Duration period, Action action,
                                EventOrder order = EventOrder::kDefault);

  /// Cancel a pending event; no-op if already fired, cancelled, or invalid.
  /// O(1): frees the slot and bumps its generation — the queued key is
  /// recognized as stale and purged when it surfaces.
  void cancel(EventHandle handle);

  /// Run until the event queue drains or `horizon` is passed; returns the
  /// final simulated time.
  Time run_until(Time horizon);

  /// Number of events executed so far (diagnostics / perf counters).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Snapshot of the hot-path counters.
  [[nodiscard]] KernelCounters counters() const;

 private:
  /// 24-byte comparison-heap key. The action lives in the slot pool; the
  /// heap orders keys by (when, order, seq) exactly as the fat-Event heap
  /// did — `order_slot` packs the order class into the high 32 bits and the
  /// pool slot into the low 32, and the comparator looks only at the order
  /// half, so the tie-break semantics are unchanged.
  struct HeapItem {
    Time when = 0;
    std::uint64_t order_slot = 0;
    std::uint64_t seq = 0;
  };
  struct Later {
    /// Defined in kernel.cpp, the only file that pushes or pops the heap.
    bool operator()(const HeapItem& a, const HeapItem& b) const;
  };

  /// One pooled event: the action (stored once, reused across periodic
  /// occurrences), the series period (0 = one-shot), and the liveness /
  /// staleness tags. `pending_seq` is the seq of the currently queued
  /// occurrence: a popped key whose seq differs is stale (cancelled slot, or
  /// slot recycled for a new event — seqs are never reused).
  struct Slot {
    Action action;
    Duration period = 0;
    std::uint64_t pending_seq = 0;
    std::uint32_t generation = 0;
    std::uint32_t order = 0;
    bool live = false;
  };

  // Timer wheel: 256 buckets of 2^16 ns (~65.5 µs) each — ~16.8 ms horizon,
  // covering the task/bus period range the workloads schedule at.
  static constexpr int kWheelShift = 16;
  static constexpr std::size_t kWheelBuckets = 256;

  std::priority_queue<HeapItem, std::vector<HeapItem>, Later> queue_;
  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::array<std::vector<HeapItem>, kWheelBuckets> wheel_;
  std::uint64_t wheel_count_ = 0;
  Time wheel_min_ = kForever;  ///< Earliest `when` parked in the wheel.

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t skipped_dead_ = 0;
  std::uint64_t peak_depth_ = 0;
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t wheel_flushed_ = 0;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Assign the next seq and park the occurrence (wheel or heap).
  void push_occurrence(std::uint32_t slot, Time when, std::uint32_t order);
  /// Promote every wheel entry with when <= limit into the heap.
  void flush_wheel(Time limit);
  /// Re-derive wheel_min_ after draining the bucket at `drained_index`.
  void recompute_wheel_min(std::size_t drained_index);
};

}  // namespace orte::sim
