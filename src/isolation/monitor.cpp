#include "isolation/monitor.hpp"

namespace orte::isolation {

namespace {
constexpr std::string_view kMiss = "task.deadline_miss";
}  // namespace

ContainmentMonitor::ContainmentMonitor(const sim::Trace& trace)
    : trace_(&trace) {
  for (const auto& [subject_id, count] :
       trace.subject_counts_by_id(trace.category_id(kMiss))) {
    misses_at_start_.emplace(subject_id, count);
  }
}

std::uint64_t ContainmentMonitor::victim_misses(
    std::string_view aggressor) const {
  std::uint64_t n = 0;
  for (const auto& [task_id, count] :
       trace_->subject_counts_by_id(trace_->category_id(kMiss))) {
    if (trace_->subject_name(task_id).starts_with(aggressor)) continue;
    auto it = misses_at_start_.find(task_id);
    n += count - (it == misses_at_start_.end() ? 0 : it->second);
  }
  return n;
}

}  // namespace orte::isolation
