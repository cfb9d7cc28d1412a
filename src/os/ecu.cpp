#include "os/ecu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace orte::os {

namespace {
constexpr Duration kUnevaluated = -1;
}

Ecu::Ecu(sim::Kernel& kernel, sim::Trace& trace, std::string name)
    : kernel_(kernel),
      trace_(trace),
      name_(std::move(name)),
      cat_{trace.intern_category("task.activate"),
           trace.intern_category("task.start"),
           trace.intern_category("task.complete"),
           trace.intern_category("task.deadline_miss"),
           trace.intern_category("task.kill"),
           trace.intern_category("task.activation_queued"),
           trace.intern_category("task.activation_lost"),
           trace.intern_category("partition.exhausted"),
           trace.intern_category("partition.replenish")} {}

Task& Ecu::add_task(TaskConfig cfg) {
  if (started_) throw std::logic_error("Ecu::add_task after start()");
  if (cfg.partition >= static_cast<int>(partitions_.size())) {
    throw std::invalid_argument("Ecu::add_task: unknown partition");
  }
  tasks_.push_back(std::make_unique<Task>(std::move(cfg)));
  Task& task = *tasks_.back();
  task.ecu_ = this;
  task.trace_id_ = trace_.intern_subject(task.cfg_.name);
  return task;
}

int Ecu::add_partition(PartitionConfig cfg) {
  if (cfg.budget <= 0 || cfg.period <= 0) {
    throw std::invalid_argument("Ecu::add_partition: budget/period must be >0");
  }
  const sim::TraceId id = trace_.intern_subject(cfg.name);
  partitions_.push_back(Partition{std::move(cfg), id, 0, false, 0});
  return static_cast<int>(partitions_.size()) - 1;
}

void Ecu::set_schedule_table(std::vector<TableEntry> entries, Duration cycle) {
  if (cycle <= 0) throw std::invalid_argument("schedule table cycle <= 0");
  for (const auto& e : entries) {
    if (e.offset < 0 || e.offset >= cycle) {
      throw std::invalid_argument("schedule table offset outside cycle");
    }
  }
  table_ = std::move(entries);
  table_cycle_ = cycle;
}

void Ecu::start() {
  if (started_) throw std::logic_error("Ecu::start called twice");
  started_ = true;
  started_at_ = kernel_.now();

  // Dispatch order for the ready set: priority descending, registration
  // order among equals (the stable sort keeps it).
  for (const auto& task : tasks_) by_rank_.push_back(task.get());
  std::stable_sort(by_rank_.begin(), by_rank_.end(),
                   [](const Task* a, const Task* b) {
                     return a->cfg_.priority > b->cfg_.priority;
                   });
  for (std::size_t r = 0; r < by_rank_.size(); ++r) by_rank_[r]->rank_ = r;
  ready_bits_.assign((by_rank_.size() + 63) / 64, 0);

  // Arm implicit alarms for periodic tasks.
  for (const auto& task : tasks_) {
    if (task->cfg_.period > 0) {
      Task* t = task.get();
      kernel_.schedule_periodic(
          started_at_ + t->cfg_.offset, t->cfg_.period,
          [this, t] { activate_internal(*t); }, sim::EventOrder::kKernel);
    }
  }

  // Arm the time-triggered schedule table.
  for (const auto& entry : table_) {
    Task* t = find_task(entry.task);
    if (t == nullptr) {
      throw std::logic_error("schedule table references unknown task: " +
                             entry.task);
    }
    kernel_.schedule_periodic(
        started_at_ + entry.offset, table_cycle_,
        [this, t] { activate_internal(*t); }, sim::EventOrder::kKernel);
  }

  // Arm partition replenishment.
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    partitions_[i].budget_remaining = partitions_[i].cfg.budget;
    kernel_.schedule_periodic(
        started_at_ + partitions_[i].cfg.period, partitions_[i].cfg.period,
        [this, i] { replenish_partition(i); }, sim::EventOrder::kKernel);
  }
}

void Ecu::activate(Task& task) {
  if (!started_) throw std::logic_error("Ecu::activate before start()");
  activate_internal(task);
}

Task* Ecu::find_task(std::string_view name) {
  for (const auto& t : tasks_) {
    if (t->cfg_.name == name) return t.get();
  }
  return nullptr;
}

double Ecu::utilization() const {
  const Time elapsed = kernel_.now() - started_at_;
  if (elapsed <= 0) return 0.0;
  Duration busy = busy_time_;
  if (running_ != nullptr) busy += kernel_.now() - run_start_;
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

std::uint64_t Ecu::partition_throttles(int partition) const {
  return partitions_.at(static_cast<std::size_t>(partition)).throttle_count;
}

// --- Internal machinery -----------------------------------------------------

void Ecu::activate_internal(Task& task) {
  ++task.activations_;
  if (task.state_ == Task::State::kSuspended) {
    begin_job(task);
    dispatch();
    return;
  }
  if (task.pending_.size() < task.cfg_.max_pending_activations) {
    task.pending_.push_back(kernel_.now());
    trace_.emit(kernel_.now(), cat_.activation_queued, task.trace_id_);
  } else {
    ++task.activations_lost_;
    trace_.emit(kernel_.now(), cat_.activation_lost, task.trace_id_);
  }
}

void Ecu::begin_job(Task& task) {
  assert(task.state_ == Task::State::kSuspended);
  if (task.segments_.empty()) {
    throw std::logic_error("task has no body: " + task.cfg_.name);
  }
  task.state_ = Task::State::kReady;
  set_ready(task, true);
  task.segment_index_ = 0;
  task.segment_started_ = false;
  task.segment_remaining_ = kUnevaluated;
  task.job_budget_remaining_ = task.cfg_.budget;
  task.activation_time_ = kernel_.now();
  Duration rel = task.cfg_.relative_deadline;
  if (rel <= 0) rel = task.cfg_.period;
  task.absolute_deadline_ =
      rel > 0 ? task.activation_time_ + rel : sim::kForever;
  ++task.job_seq_;
  trace_.emit(kernel_.now(), cat_.activate, task.trace_id_);
  // Miss detection happens AT the deadline, so starved jobs that never
  // complete are counted too. The observer fires after same-instant
  // completions, so finishing exactly on the deadline is not a miss.
  // The 16-byte {Task*, seq} capture fits std::function's small-object
  // buffer, so arming a job costs no allocation; the Ecu is reached through
  // the task's back-pointer.
  if (task.absolute_deadline_ != sim::kForever) {
    Task* t = &task;
    const std::uint64_t seq = task.job_seq_;
    task.deadline_event_ = kernel_.schedule_at(
        task.absolute_deadline_,
        [t, seq] {
          if (t->state_ != Task::State::kSuspended && t->job_seq_ == seq) {
            ++t->deadline_misses_;
            const Ecu& ecu = *t->ecu_;
            ecu.trace_.emit(ecu.kernel_.now(), ecu.cat_.deadline_miss,
                            t->trace_id_);
          }
        },
        sim::EventOrder::kObserver);
  }
}

void Ecu::set_ready(const Task& task, bool ready) {
  const std::uint64_t bit = std::uint64_t{1} << (task.rank_ % 64);
  std::uint64_t& word = ready_bits_[task.rank_ / 64];
  word = ready ? word | bit : word & ~bit;
}

bool Ecu::eligible(const Task& task) const {
  if (task.state_ == Task::State::kSuspended) return false;
  if (task.cfg_.partition >= 0 &&
      partitions_[static_cast<std::size_t>(task.cfg_.partition)].exhausted) {
    return false;
  }
  return true;
}

// The dispatch rule: strictly higher priority wins; the incumbent wins ties
// so equal priorities never preempt each other (OSEK semantics); otherwise
// the lower registration index wins.
Task* Ecu::pick_next() {
  // The first eligible task in dispatch order has the highest priority
  // (lowest index among equals), so it beats every other task. Only the
  // incumbent (tie rule) can still beat it.
  Task* best = nullptr;
  for (std::size_t w = 0; w < ready_bits_.size() && best == nullptr; ++w) {
    for (std::uint64_t bits = ready_bits_[w]; bits != 0; bits &= bits - 1) {
      Task* t = by_rank_[w * 64 + static_cast<std::size_t>(
                                      std::countr_zero(bits))];
      if (eligible(*t)) {
        best = t;
        break;
      }
    }
  }
  if (best != nullptr && running_ != nullptr && eligible(*running_) &&
      running_->cfg_.priority >= best->cfg_.priority) {
    best = running_;
  }
  assert(best == pick_next_linear());
  return best;
}

#ifndef NDEBUG
Task* Ecu::pick_next_linear() const {
  Task* best = nullptr;
  int best_prio = 0;
  for (const auto& up : tasks_) {
    Task* t = up.get();
    if (!eligible(*t)) continue;
    const int prio = t->cfg_.priority;
    if (best == nullptr || prio > best_prio ||
        (prio == best_prio && t == running_)) {
      best = t;
      best_prio = prio;
    }
  }
  return best;
}
#endif

void Ecu::charge(Task& task, Duration elapsed) {
  if (elapsed <= 0) return;
  busy_time_ += elapsed;
  assert(task.segment_remaining_ >= elapsed);
  task.segment_remaining_ -= elapsed;
  if (task.cfg_.budget > 0) {
    task.job_budget_remaining_ =
        std::max<Duration>(0, task.job_budget_remaining_ - elapsed);
  }
  if (task.cfg_.partition >= 0) {
    auto& p = partitions_[static_cast<std::size_t>(task.cfg_.partition)];
    p.budget_remaining = std::max<Duration>(0, p.budget_remaining - elapsed);
  }
}

void Ecu::pause_running() {
  assert(running_ != nullptr);
  charge(*running_, kernel_.now() - run_start_);
  if (run_event_armed_) {
    kernel_.cancel(run_event_);
    run_event_armed_ = false;
  }
  running_->state_ = Task::State::kReady;
  running_ = nullptr;
}

void Ecu::arm_run_event() {
  assert(running_ != nullptr);
  Task& t = *running_;
  assert(t.segment_remaining_ >= 0);
  Duration until = t.segment_remaining_;
  if (t.cfg_.budget > 0) until = std::min(until, t.job_budget_remaining_);
  if (t.cfg_.partition >= 0) {
    const auto& p = partitions_[static_cast<std::size_t>(t.cfg_.partition)];
    until = std::min(until, p.budget_remaining);
  }
  run_event_ = kernel_.schedule_in(
      until, [this] { on_run_event(); }, sim::EventOrder::kKernel);
  run_event_armed_ = true;
}

void Ecu::dispatch() {
  if (in_dispatch_) return;
  in_dispatch_ = true;
  while (true) {
    Task* best = pick_next();
    if (best != running_) {
      if (running_ != nullptr) pause_running();
      running_ = best;
      if (running_ == nullptr) break;
      running_->state_ = Task::State::kRunning;
      ++context_switches_;
      run_start_ = kernel_.now();
    }
    if (running_ == nullptr) break;
    Task& t = *running_;
    if (!t.segment_started_) {
      t.segment_started_ = true;
      auto& seg = t.segments_[t.segment_index_];
      t.segment_remaining_ = seg.duration ? seg.duration() : 0;
      if (t.segment_remaining_ < 0) {
        throw std::logic_error("negative segment duration: " + t.cfg_.name);
      }
      trace_.emit(kernel_.now(), cat_.start, t.trace_id_,
                  static_cast<std::int64_t>(t.segment_index_));
      if (seg.before) seg.before();
      continue;  // the hook may have changed the ready set; re-evaluate
    }
    if (!run_event_armed_) arm_run_event();
    break;
  }
  in_dispatch_ = false;
}

void Ecu::on_run_event() {
  run_event_armed_ = false;
  assert(running_ != nullptr);
  Task& t = *running_;
  charge(t, kernel_.now() - run_start_);
  run_start_ = kernel_.now();
  if (t.segment_remaining_ == 0) {
    run_segment_boundary(t);
  } else if (t.cfg_.budget > 0 && t.job_budget_remaining_ == 0) {
    kill_job(t, "budget");
  } else if (t.cfg_.partition >= 0) {
    auto& p = partitions_[static_cast<std::size_t>(t.cfg_.partition)];
    if (p.budget_remaining == 0 && !p.exhausted) {
      p.exhausted = true;
      ++p.throttle_count;
      trace_.emit(kernel_.now(), cat_.partition_exhausted, p.trace_id);
      running_->state_ = Task::State::kReady;
      running_ = nullptr;
    }
  }
  dispatch();
}

void Ecu::run_segment_boundary(Task& task) {
  auto& seg = task.segments_[task.segment_index_];
  if (seg.after) seg.after();
  ++task.segment_index_;
  if (task.segment_index_ < task.segments_.size()) {
    task.segment_started_ = false;
    task.segment_remaining_ = kUnevaluated;
    return;  // dispatch() (in caller) will start the next segment
  }
  complete_job(task);
}

void Ecu::complete_job(Task& task) {
  const Time now = kernel_.now();
  task.response_times_.add(sim::to_ms(now - task.activation_time_));
  ++task.jobs_completed_;
  // Deadline misses are detected by the observer armed in begin_job.
  trace_.emit(now, cat_.complete, task.trace_id_, now - task.activation_time_);
  if (task.completion_cb_) task.completion_cb_(task.activation_time_, now);
  task.state_ = Task::State::kSuspended;
  set_ready(task, false);
  // The job left the system before (or exactly at) its deadline: retire the
  // miss observer instead of letting it fire as a dead event. Cancelling a
  // handle whose event already fired (miss already counted) is a no-op.
  kernel_.cancel(task.deadline_event_);
  if (running_ == &task) running_ = nullptr;
  if (!task.pending_.empty()) {
    task.pending_.erase(task.pending_.begin());
    begin_job(task);
  }
}

void Ecu::kill_job(Task& task, std::string_view reason) {
  ++task.jobs_killed_;
  trace_.emit(kernel_.now(), cat_.kill, task.trace_id_, 0, reason);
  task.state_ = Task::State::kSuspended;
  set_ready(task, false);
  kernel_.cancel(task.deadline_event_);  // stale-safe if it already fired
  if (running_ == &task) running_ = nullptr;
  if (!task.pending_.empty()) {
    task.pending_.erase(task.pending_.begin());
    begin_job(task);
  }
}

void Ecu::replenish_partition(std::size_t index) {
  auto& p = partitions_[index];
  p.budget_remaining = p.cfg.budget;
  if (p.exhausted) {
    p.exhausted = false;
    trace_.emit(kernel_.now(), cat_.partition_replenish, p.trace_id);
  }
  dispatch();
}

}  // namespace orte::os
