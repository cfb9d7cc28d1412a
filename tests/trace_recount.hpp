// Test-side recounts over a trace's retained records. The trace itself
// counts per category only; these answer the per-subject questions tests
// ask and guard the per-category counts against drift.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "sim/trace.hpp"

namespace orte::test {

/// Retained records of one (category, subject).
inline std::size_t records_of(const sim::Trace& t, std::string_view category,
                              std::string_view subject) {
  return static_cast<std::size_t>(
      std::ranges::count_if(t.records(), [&](const sim::TraceRecord& r) {
        return r.category == category && r.subject == subject;
      }));
}

/// Index-drift guard: for every interned category, the retained records of
/// that category number count(id). Holds while retention has been on for
/// every emit.
inline bool counts_match_records(const sim::Trace& t) {
  for (sim::TraceId id = 0; !t.category_name(id).empty(); ++id) {
    const auto retained =
        std::ranges::count_if(t.records(), [&](const sim::TraceRecord& r) {
          return r.category == t.category_name(id);
        });
    if (static_cast<std::size_t>(retained) != t.count(id)) return false;
  }
  return true;
}

}  // namespace orte::test
