// Structured event trace. Observers (tests, benches, runtime monitors)
// subscribe to the live stream of interned IDs; records are also retained
// for post-run queries when retention is on.
//
// Category and subject strings are interned into dense integer TraceIds, so
// the hot path is allocation-free and O(1). Emitters that fire per job
// (os::Ecu, vfb::Rte) intern their names once at construction and call the
// ID overload of emit(), which hashes nothing: it bumps a per-category
// counter and one cell of that category's count row (indexed by subject
// ID), notifies the ID listeners, and only builds a TraceRecord when
// retention is on. The string overload interns both names with one
// transparent hash lookup each and forwards to it. Listeners and records
// carry the IDs so downstream consumers (rv::MonitorRegistry,
// isolation::ContainmentMonitor) route and compare integers, never strings.
// IDs are stable for the lifetime of the Trace.
#pragma once

#include <algorithm>
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
  TraceId category_id = kNoTraceId;  ///< Intern ID of `category`.
  TraceId subject_id = kNoTraceId;   ///< Intern ID of `subject`.
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
    bump(category, subject);
    // Listeners see IDs only: with retention off, an emit costs the count
    // bumps and this loop — no string is assigned or copied anywhere.
    if (!id_listeners_.empty()) {
      const TraceEvent ev{when, category, subject, value, detail};
      for (const auto& l : id_listeners_) l(ev);
    }
    if (!retain_) {
      records_complete_ = false;
      return;
    }
    records_.push_back(TraceRecord{when,
                                   std::string(categories_.name(category)),
                                   std::string(subjects_.name(subject)),
                                   value,
                                   std::string(detail),
                                   category,
                                   subject});
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

  [[nodiscard]] std::size_t count(std::string_view category,
                                  std::string_view subject) const {
    return count(categories_.find(category), subjects_.find(subject));
  }

  [[nodiscard]] std::size_t count(TraceId category) const {
    return category < category_counts_.size() ? category_counts_[category]
                                              : 0;
  }

  [[nodiscard]] std::size_t count(TraceId category, TraceId subject) const {
    if (category >= subject_counts_.size()) return 0;
    const auto& row = subject_counts_[category];
    return subject < row.size() ? row[subject] : 0;
  }

  /// Every (subject, count) pair recorded under `category`, in subject
  /// order. Incremental consumers (isolation::ContainmentMonitor, rv
  /// monitors) classify from this index instead of re-scanning records.
  /// O(subjects-in-category): each category keeps its own bucket of seen
  /// subject IDs, so the query never walks a whole count row.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>>
  subject_counts(std::string_view category) const {
    std::vector<std::pair<std::string, std::size_t>> out;
    const TraceId cat = categories_.find(category);
    if (cat == kNoTraceId || cat >= category_subjects_.size()) return out;
    out.reserve(category_subjects_[cat].size());
    for (const TraceId subj : category_subjects_[cat]) {
      out.emplace_back(std::string(subjects_.name(subj)),
                       subject_counts_[cat][subj]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// ID-keyed variant of subject_counts() (unordered): every
  /// (subject_id, count) pair recorded under the category ID, in
  /// O(subjects-in-category).
  [[nodiscard]] std::vector<std::pair<TraceId, std::size_t>>
  subject_counts_by_id(TraceId category) const {
    std::vector<std::pair<TraceId, std::size_t>> out;
    if (category == kNoTraceId || category >= category_subjects_.size()) {
      return out;
    }
    out.reserve(category_subjects_[category].size());
    for (const TraceId subj : category_subjects_[category]) {
      out.emplace_back(subj, subject_counts_[category][subj]);
    }
    return out;
  }

  /// Consistency test hook: recount the retained records by their strings
  /// and compare against the ID-indexed counts. Only meaningful when
  /// retention has been on since construction (otherwise counts
  /// legitimately exceed the recount); callers can check records_complete()
  /// first. Used by the index-drift regression tests.
  [[nodiscard]] bool counts_match_records() const {
    std::vector<std::size_t> cat_recount(category_counts_.size(), 0);
    std::vector<std::vector<std::size_t>> row_recount(subject_counts_.size());
    for (const auto& rec : records_) {
      const TraceId cat = categories_.find(rec.category);
      const TraceId subj = subjects_.find(rec.subject);
      if (cat == kNoTraceId || subj == kNoTraceId) return false;
      if (cat != rec.category_id || subj != rec.subject_id) return false;
      if (cat >= cat_recount.size()) return false;
      ++cat_recount[cat];
      auto& row = row_recount[cat];
      if (subj >= row.size()) row.resize(subj + 1, 0);
      ++row[subj];
    }
    if (cat_recount != category_counts_) return false;
    // Every count row must agree with the recount cell by cell, and each
    // category's subject bucket must list exactly its non-zero cells, once.
    for (TraceId cat = 0; cat < subject_counts_.size(); ++cat) {
      const auto& row = subject_counts_[cat];
      const auto& recount = row_recount[cat];
      std::size_t nonzero = 0;
      for (std::size_t subj = 0; subj < std::max(row.size(), recount.size());
           ++subj) {
        const std::size_t n = subj < row.size() ? row[subj] : 0;
        if (n != (subj < recount.size() ? recount[subj] : 0)) return false;
        nonzero += n != 0 ? 1 : 0;
      }
      const auto& bucket = category_subjects_[cat];
      if (bucket.size() != nonzero) return false;
      for (const TraceId subj : bucket) {
        if (count(cat, subj) == 0) return false;
      }
    }
    return true;
  }

  /// True while the retained records cover every emission since
  /// construction (retention never off during an emit).
  [[nodiscard]] bool records_complete() const { return records_complete_; }

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

  // One growth check per index, then direct indexing — no hashing. A
  // subject's first bump in a category also files it into the category's
  // subject bucket, keeping the subject_counts() queries
  // O(subjects-in-category).
  void bump(TraceId category, TraceId subject) {
    if (category >= category_counts_.size()) {
      category_counts_.resize(category + 1, 0);
      subject_counts_.resize(category + 1);
      category_subjects_.resize(category + 1);
    }
    ++category_counts_[category];
    auto& row = subject_counts_[category];
    if (subject >= row.size()) row.resize(subject + 1, 0);
    if (row[subject]++ == 0) category_subjects_[category].push_back(subject);
  }

  std::vector<IdListener> id_listeners_;
  std::vector<TraceRecord> records_;
  Interner categories_;
  Interner subjects_;
  std::vector<std::size_t> category_counts_;  ///< Indexed by category ID.
  /// Per-category count rows indexed by subject ID; a row grows to the
  /// largest subject ID seen in its category.
  std::vector<std::vector<std::size_t>> subject_counts_;
  /// Subject IDs seen per category (first-bump order) — the iteration set
  /// of subject_counts(); subject_counts_ keeps the numbers.
  std::vector<std::vector<TraceId>> category_subjects_;
  bool retain_ = true;
  bool records_complete_ = true;
};

}  // namespace orte::sim
