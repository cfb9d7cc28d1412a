// Structured event trace. Observers (tests, benches, runtime monitors)
// subscribe to the live stream of interned IDs; records are also retained
// for post-run queries when retention is on.
//
// Category and subject strings are interned into dense integer TraceIds, so
// the hot path is allocation-free and O(1). Emitters that fire per job
// (os::Ecu, vfb::Rte) intern their names once at construction and call the
// ID overload of emit(), which hashes nothing: it bumps the category's
// counter, notifies the ID listeners, and only builds a TraceRecord when
// retention is on. The string overload interns both names with one
// transparent hash lookup each and forwards to it. Listeners get the IDs,
// so downstream consumers (rv::MonitorRegistry) route and compare integers,
// never strings; per-subject state is theirs to keep. IDs are stable for
// the lifetime of the Trace.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace orte::sim {

/// Dense intern ID for a trace category or subject string. IDs are
/// per-Trace, assigned in first-sight order, and never recycled.
using TraceId = std::uint32_t;

/// "Not interned (yet)" — returned by the const lookups for unseen names.
inline constexpr TraceId kNoTraceId = 0xFFFFFFFFu;

struct TraceRecord {
  Time when = 0;
  std::string category;  // e.g. "task.release", "can.tx", "budget.overrun"
  std::string subject;   // task/frame/node name
  std::int64_t value = 0;
  std::string detail;
};

/// Allocation-free view of one emission, delivered to listeners
/// (subscribe_ids). Carries the interned IDs instead of the name strings —
/// consumers that route on TraceIds (rv::MonitorRegistry) never pay a string
/// assignment; names are recoverable through Trace::category_name /
/// subject_name when a cold path (violation reporting) needs them. `detail`
/// views the emitter's buffer and is only valid during the callback.
struct TraceEvent {
  Time when = 0;
  TraceId category_id = kNoTraceId;
  TraceId subject_id = kNoTraceId;
  std::int64_t value = 0;
  std::string_view detail;
};

class Trace {
 public:
  using IdListener = std::function<void(const TraceEvent&)>;

  void enable_retention(bool on) { retain_ = on; }

  void emit(Time when, std::string_view category, std::string_view subject,
            std::int64_t value = 0, std::string_view detail = {}) {
    emit(when, categories_.intern(category), subjects_.intern(subject), value,
         detail);
  }

  /// Emit under pre-interned IDs (intern_category / intern_subject of this
  /// Trace): the per-job form, with no name hashing at all.
  void emit(Time when, TraceId category, TraceId subject,
            std::int64_t value = 0, std::string_view detail = {}) {
    assert(category < categories_.size() && subject < subjects_.size());
    if (category >= category_counts_.size()) {
      category_counts_.resize(category + 1, 0);
    }
    ++category_counts_[category];
    // Listeners see IDs only: with retention off, an emit costs the count
    // bump and this loop — no string is assigned or copied anywhere.
    if (!id_listeners_.empty()) {
      const TraceEvent ev{when, category, subject, value, detail};
      for (const auto& l : id_listeners_) l(ev);
    }
    if (!retain_) return;
    records_.push_back(TraceRecord{when,
                                   std::string(categories_.name(category)),
                                   std::string(subjects_.name(subject)),
                                   value, std::string(detail)});
  }

  /// Subscribe a listener: it receives a TraceEvent (interned IDs, no name
  /// strings) for every emission, in subscription order. Names are
  /// recoverable through category_name() / subject_name().
  void subscribe_ids(IdListener listener) {
    id_listeners_.push_back(std::move(listener));
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

  // --- Interning ------------------------------------------------------------

  /// Intern a name ahead of its first emission (observers pre-register the
  /// IDs they will route on, e.g. rv::MonitorRegistry at attach() time).
  TraceId intern_category(std::string_view category) {
    return categories_.intern(category);
  }
  TraceId intern_subject(std::string_view subject) {
    return subjects_.intern(subject);
  }

  /// ID of a name if it has been seen/interned, kNoTraceId otherwise.
  [[nodiscard]] TraceId category_id(std::string_view category) const {
    return categories_.find(category);
  }
  [[nodiscard]] TraceId subject_id(std::string_view subject) const {
    return subjects_.find(subject);
  }

  /// Reverse lookup; empty view for unknown IDs.
  [[nodiscard]] std::string_view category_name(TraceId id) const {
    return categories_.name(id);
  }
  [[nodiscard]] std::string_view subject_name(TraceId id) const {
    return subjects_.name(id);
  }

  // --- Counting -------------------------------------------------------------

  /// Emissions in `category` since construction, independent of retention.
  [[nodiscard]] std::size_t count(std::string_view category) const {
    return count(categories_.find(category));
  }

  [[nodiscard]] std::size_t count(TraceId category) const {
    return category < category_counts_.size() ? category_counts_[category]
                                              : 0;
  }

 private:
  /// String -> dense ID table with stable IDs and O(1) transparent lookup
  /// (no std::string built for a hit). Name storage lives in the map nodes,
  /// which are pointer-stable across rehash and move.
  class Interner {
   public:
    TraceId intern(std::string_view name) {
      auto it = ids_.find(name);
      if (it != ids_.end()) return it->second;
      const TraceId id = static_cast<TraceId>(names_.size());
      it = ids_.emplace(std::string(name), id).first;
      names_.push_back(it->first);
      return id;
    }
    [[nodiscard]] TraceId find(std::string_view name) const {
      auto it = ids_.find(name);
      return it == ids_.end() ? kNoTraceId : it->second;
    }
    [[nodiscard]] std::string_view name(TraceId id) const {
      return id < names_.size() ? names_[id] : std::string_view{};
    }
    [[nodiscard]] std::size_t size() const { return names_.size(); }

   private:
    struct Hash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
      }
    };
    std::unordered_map<std::string, TraceId, Hash, std::equal_to<>> ids_;
    std::vector<std::string_view> names_;  ///< Views into ids_ keys.
  };

  std::vector<IdListener> id_listeners_;
  std::vector<TraceRecord> records_;
  Interner categories_;
  Interner subjects_;
  std::vector<std::size_t> category_counts_;  ///< Indexed by category ID.
  bool retain_ = true;
};

}  // namespace orte::sim
