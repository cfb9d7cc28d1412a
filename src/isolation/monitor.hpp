// Containment monitor: separates victim damage from aggressor damage (error
// containment = victims unaffected while the aggressor is sanctioned).
//
// Implemented over the trace's incremental count index rather than a
// listener: construction snapshots the per-task deadline-miss counts as a
// baseline and a query is "current index minus baseline". Only events from
// construction on count, and the monitor adds zero per-record cost.
// Baselines are keyed by interned subject ID (stable for the trace's
// lifetime), so queries compare integers, never strings.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "sim/trace.hpp"

namespace orte::isolation {

class ContainmentMonitor {
 public:
  /// Snapshots the trace's counts; only events from this point on count.
  explicit ContainmentMonitor(const sim::Trace& trace);

  /// Deadline misses of every task whose name does not start with
  /// `aggressor`, the aggressor's task-name prefix (victim damage).
  [[nodiscard]] std::uint64_t victim_misses(std::string_view aggressor) const;

 private:
  const sim::Trace* trace_;
  std::unordered_map<sim::TraceId, std::uint64_t> misses_at_start_;
};

}  // namespace orte::isolation
