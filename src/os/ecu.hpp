// OSEK/AUTOSAR-OS-style ECU kernel on top of the discrete-event simulator.
//
// Supported (cf. DESIGN.md S2):
//  * preemptive fixed-priority scheduling (BCC1-like basic tasks),
//  * periodic activation via implicit alarms (period + offset) and explicit
//    event activation (Ecu::activate) for chained / bus-triggered tasks,
//  * time-triggered dispatch via schedule tables,
//  * timing isolation: per-job execution budgets (an overrunning job is
//    killed) and partition budgets with periodic replenishment (throttle) —
//    the "resource reservation" policies the paper calls for in §1/§2,
//  * deadline and response-time monitoring with trace emission.
//
// Task bodies are modelled as ordered *segments*: each consumes simulated CPU
// time and can run zero-time actions at its start and end (RTE reads/writes,
// COM sends, mode requests). This keeps the simulation deterministic without
// threads or coroutines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::os {

using sim::Duration;
using sim::Time;

class Ecu;
class Task;

/// A contiguous chunk of task execution.
struct Segment {
  /// Simulated CPU time this segment consumes for one job. Re-evaluated per
  /// activation so execution-time variation / fault injection can be modelled.
  std::function<Duration()> duration;
  /// Zero-time action at segment start (e.g. RTE implicit read).
  std::function<void()> before;
  /// Zero-time action at segment completion (e.g. RTE implicit write, send).
  std::function<void()> after;
};

struct TaskConfig {
  std::string name;
  int priority = 0;  ///< Higher value = higher priority.
  /// Period for autonomous periodic activation; 0 = event-activated only.
  Duration period = 0;
  Time offset = 0;  ///< First activation instant for periodic tasks.
  /// Relative deadline; 0 means "== period" (or unbounded for event tasks).
  Duration relative_deadline = 0;
  /// Per-job execution budget; 0 = unlimited. A job that exhausts it is
  /// killed (reported; the next activation runs normally).
  Duration budget = 0;
  /// Partition id from Ecu::add_partition, or -1 for none.
  int partition = -1;
  /// OSEK multiple-activation limit: how many pending activations may queue.
  std::size_t max_pending_activations = 1;
};

struct PartitionConfig {
  std::string name;
  Duration budget = 0;  ///< CPU time available per replenishment period.
  Duration period = 0;  ///< Replenishment period.
};

/// One entry of a time-triggered schedule table.
struct TableEntry {
  Duration offset = 0;  ///< Offset within the table cycle.
  std::string task;     ///< Task to activate at this expiry point.
};

class Task {
 public:
  explicit Task(TaskConfig cfg) : cfg_(std::move(cfg)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  const TaskConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }

  /// Append an execution segment; segments run in order within each job.
  void add_segment(Segment seg) { segments_.push_back(std::move(seg)); }

  /// Convenience: single fixed-duration segment with completion action.
  void set_body(Duration wcet, std::function<void()> on_complete = {}) {
    segments_.clear();
    segments_.push_back(
        Segment{[wcet] { return wcet; }, {}, std::move(on_complete)});
  }

  /// Convenience: single variable-duration segment.
  void set_body(std::function<Duration()> duration,
                std::function<void()> on_complete = {}) {
    segments_.clear();
    segments_.push_back(
        Segment{std::move(duration), {}, std::move(on_complete)});
  }

  /// Invoked at each job completion with (activation, completion) instants.
  void on_complete(std::function<void(Time, Time)> cb) {
    completion_cb_ = std::move(cb);
  }

  /// Wrap every segment's execution time: on each job, `fn` receives the
  /// nominal duration the segment would have consumed and returns the one it
  /// actually consumes. This is the task-plane fault-injection seam (WCET
  /// overrun, execution jitter, crash-to-zero) — wraps compose, generated
  /// task bodies stay untouched. Call before the first activation.
  void transform_durations(std::function<Duration(Duration)> fn) {
    for (auto& seg : segments_) {
      if (!seg.duration) continue;
      seg.duration = [base = std::move(seg.duration), fn] {
        return fn(base());
      };
    }
  }

  // --- Observability -------------------------------------------------------
  const sim::Stats& response_times() const { return response_times_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }
  std::uint64_t jobs_killed() const { return jobs_killed_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  std::uint64_t activations_lost() const { return activations_lost_; }
  std::uint64_t activations() const { return activations_; }

 private:
  friend class Ecu;

  enum class State { kSuspended, kReady, kRunning };

  TaskConfig cfg_;
  Ecu* ecu_ = nullptr;  ///< Owning ECU (set at add_task); lets per-job
                        ///< observers capture only {Task*, seq} and stay
                        ///< within std::function's small-buffer size.
  sim::TraceId trace_id_ = sim::kNoTraceId;  ///< Interned name (add_task).
  std::size_t rank_ = 0;   ///< Position in the ECU's dispatch order (start).
  std::vector<Segment> segments_;
  std::function<void(Time, Time)> completion_cb_;

  // --- Job runtime state (valid while State != kSuspended) -----------------
  State state_ = State::kSuspended;
  std::size_t segment_index_ = 0;
  Duration segment_remaining_ = 0;
  bool segment_started_ = false;  ///< `before` hook already ran.
  Duration job_budget_remaining_ = 0;
  Time activation_time_ = 0;
  Time absolute_deadline_ = sim::kForever;
  std::uint64_t job_seq_ = 0;  ///< Distinguishes jobs for deadline checks.
  /// Pending deadline-miss observer of the current job; cancelled when the
  /// job leaves the system before its deadline (O(1), generation-safe).
  sim::EventHandle deadline_event_;
  std::vector<Time> pending_;  ///< Queued activation instants.

  // --- Statistics -----------------------------------------------------------
  sim::Stats response_times_;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_killed_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t activations_lost_ = 0;
  std::uint64_t activations_ = 0;
};

/// A simulated ECU: one CPU, one scheduler, a set of tasks and partitions.
class Ecu {
 public:
  Ecu(sim::Kernel& kernel, sim::Trace& trace, std::string name);
  Ecu(const Ecu&) = delete;
  Ecu& operator=(const Ecu&) = delete;

  const std::string& name() const { return name_; }

  /// Register a task. Must be called before start().
  Task& add_task(TaskConfig cfg);

  /// Register a partition (shared CPU reservation); returns its id.
  int add_partition(PartitionConfig cfg);

  /// Install a time-triggered schedule table (activations at fixed offsets,
  /// repeating every `cycle`).
  void set_schedule_table(std::vector<TableEntry> entries, Duration cycle);

  /// Arm alarms, the schedule table and partition replenishment. Call once,
  /// before Kernel::run_until.
  void start();

  /// Event-activate a task (chained activation, bus RX, application event).
  void activate(Task& task);

  Task* find_task(std::string_view name);
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

  /// Fraction of elapsed time the CPU was busy since start().
  double utilization() const;
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t partition_throttles(int partition) const;

 private:
  struct Partition {
    PartitionConfig cfg;
    sim::TraceId trace_id = sim::kNoTraceId;
    Duration budget_remaining = 0;
    bool exhausted = false;
    std::uint64_t throttle_count = 0;
  };
  /// The ECU's trace categories, interned once at construction.
  struct Categories {
    sim::TraceId activate, start, complete, deadline_miss, kill,
        activation_queued, activation_lost, partition_exhausted,
        partition_replenish;
  };

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  std::string name_;
  Categories cat_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Partition> partitions_;
  std::vector<TableEntry> table_;
  Duration table_cycle_ = 0;
  bool started_ = false;

  Task* running_ = nullptr;
  Time run_start_ = 0;  ///< When the running task last got the CPU.
  sim::EventHandle run_event_;  ///< Pending completion/budget-expiry event.
  bool run_event_armed_ = false;
  bool in_dispatch_ = false;
  Time started_at_ = 0;
  Duration busy_time_ = 0;
  std::uint64_t context_switches_ = 0;

  // --- Ready set (see pick_next) ---------------------------------------------
  /// Tasks in dispatch order: priority descending, then registration order.
  std::vector<Task*> by_rank_;
  /// Bit r is set while by_rank_[r] has a job (is not suspended).
  std::vector<std::uint64_t> ready_bits_;

  void activate_internal(Task& task);
  void begin_job(Task& task);
  void dispatch();
  void pause_running();
  void arm_run_event();
  void on_run_event();
  void charge(Task& task, Duration elapsed);
  void run_segment_boundary(Task& task);  // completion of a run-chunk
  void complete_job(Task& task);
  void kill_job(Task& task, std::string_view reason);
  void set_ready(const Task& task, bool ready);
  bool eligible(const Task& task) const;
  Task* pick_next();
#ifndef NDEBUG
  Task* pick_next_linear() const;  ///< Reference rule: full scan.
#endif
  void replenish_partition(std::size_t index);
};

}  // namespace orte::os
