#include "analysis/rta.hpp"

#include <algorithm>

namespace orte::analysis {

std::optional<Duration> response_time(
    const AnalysisTask& task, const std::vector<AnalysisTask>& taskset) {
  const Duration deadline =
      task.deadline > 0 ? task.deadline : task.period;
  const Duration horizon = deadline > 0 ? deadline : 1000 * task.period;
  Duration w = task.wcet;
  while (true) {
    Duration next = task.wcet;
    for (const auto& j : taskset) {
      // Equal-priority peers count as interference too: the dispatcher
      // breaks ties by arrival (incumbent wins), so a peer job released
      // before ours runs first — excluding it would give unsound bounds for
      // same-priority task groups (e.g. data-received event tasks, which
      // all share one generated priority on an ECU).
      if (j.priority < task.priority || j.name == task.name) continue;
      if (j.period <= 0) continue;
      const Duration interference = (w + j.jitter + j.period - 1) / j.period;
      next += interference * j.wcet;
    }
    if (next + task.jitter > horizon) return std::nullopt;
    if (next == w) return w + task.jitter;
    w = next;
  }
}

TasksetResult analyze(const std::vector<AnalysisTask>& taskset) {
  TasksetResult result;
  for (const auto& t : taskset) {
    if (t.period > 0) {
      result.utilization +=
          static_cast<double>(t.wcet) / static_cast<double>(t.period);
    }
    auto r = response_time(t, taskset);
    if (!r.has_value()) {
      result.schedulable = false;
      continue;
    }
    result.response[t.name] = *r;
  }
  return result;
}

void assign_deadline_monotonic(std::vector<AnalysisTask>& taskset) {
  std::vector<std::size_t> order(taskset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Duration da =
        taskset[a].deadline > 0 ? taskset[a].deadline : taskset[a].period;
    const Duration db =
        taskset[b].deadline > 0 ? taskset[b].deadline : taskset[b].period;
    if (da != db) return da < db;
    return taskset[a].name < taskset[b].name;
  });
  int prio = static_cast<int>(taskset.size());
  for (std::size_t idx : order) {
    taskset[idx].priority = prio--;
  }
}

}  // namespace orte::analysis
