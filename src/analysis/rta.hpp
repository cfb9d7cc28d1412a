// Fixed-priority response-time analysis (the task-level half of §3's
// "distributed real-time schedulability analysis").
//
// Classic exact analysis for constrained-deadline, preemptive fixed-priority
// scheduling with release jitter:
//   w^{n+1} = C_i + sum_{j in hp(i)} ceil((w^n + J_j) / T_j) * C_j
//   R_i     = w + J_i
// The recurrence either converges (R_i is the exact worst case under the
// model) or exceeds the deadline, in which case the task is unschedulable.
// hp(i) here includes *equal*-priority peers: the dispatcher breaks priority
// ties by arrival order, so a peer released first delays us — counting its
// full interference keeps the bound sound (if pessimistic) for groups that
// share one priority level, such as generated data-received event tasks.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace orte::analysis {

using sim::Duration;

struct AnalysisTask {
  std::string name;
  Duration wcet = 0;
  Duration period = 0;
  Duration deadline = 0;  ///< 0 = implicit (== period).
  Duration jitter = 0;    ///< Release jitter.
  int priority = 0;       ///< Higher value = higher priority.
};

/// Worst-case response time of `task` among `taskset` (which may or may not
/// include it); nullopt when the recurrence exceeds the deadline (or, for
/// zero-deadline tasks, a 1000*period safety horizon).
std::optional<Duration> response_time(const AnalysisTask& task,
                                      const std::vector<AnalysisTask>& taskset);

struct TasksetResult {
  bool schedulable = true;
  double utilization = 0.0;
  std::map<std::string, Duration> response;  ///< Only for schedulable tasks.
};

TasksetResult analyze(const std::vector<AnalysisTask>& taskset);

/// Deadline-monotonic priority assignment (optimal for constrained
/// deadlines): mutates priorities in place, highest number = highest
/// priority.
void assign_deadline_monotonic(std::vector<AnalysisTask>& taskset);

}  // namespace orte::analysis
