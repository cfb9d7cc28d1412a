#include "bsw/dem.hpp"

#include <stdexcept>

namespace orte::bsw {

Dem::Dem(sim::Kernel& kernel, sim::Trace& trace)
    : kernel_(kernel), trace_(trace) {}

void Dem::add_event(DemEventConfig cfg) {
  if (cfg.debounce_threshold < 1) {
    throw std::invalid_argument("debounce threshold must be >= 1");
  }
  const std::string name = cfg.name;
  EventState st;
  st.cfg = std::move(cfg);
  if (!events_.emplace(name, std::move(st)).second) {
    throw std::invalid_argument("duplicate DEM event: " + name);
  }
}

void Dem::report(std::string_view event, EventStatus status) {
  auto it = events_.find(event);
  if (it == events_.end()) {
    throw std::invalid_argument("Dem::report: unknown event");
  }
  ++reports_;
  EventState& st = it->second;
  if (status == EventStatus::kFailed) {
    if (st.debounce < st.cfg.debounce_threshold) ++st.debounce;
    if (st.failed) {
      // The fault is still present: keep the stored DTC's freshness
      // timestamp moving so testers see *when* it last misbehaved, not
      // just when it latched.
      auto dit = dtcs_.find(st.cfg.name);
      if (dit != dtcs_.end()) dit->second.last_occurrence = kernel_.now();
    }
    if (!st.failed && st.debounce >= st.cfg.debounce_threshold) {
      st.failed = true;
      auto [dit, fresh] = dtcs_.try_emplace(st.cfg.name);
      Dtc& dtc = dit->second;
      if (fresh) {
        dtc.event = st.cfg.name;
        dtc.code = st.cfg.dtc_code;
        dtc.first_occurrence = kernel_.now();
      }
      ++dtc.occurrence_count;
      dtc.last_occurrence = kernel_.now();
      dtc.confirmed = true;
      dtc.aged = 0;
      trace_.emit(kernel_.now(), "dem.dtc_stored", st.cfg.name,
                  dtc.occurrence_count);
      for (const auto& cb : callbacks_) cb(dtc);
    }
  } else {
    if (st.debounce > 0) --st.debounce;
    if (st.failed && st.debounce == 0) {
      st.failed = false;
      auto dit = dtcs_.find(st.cfg.name);
      if (dit != dtcs_.end()) dit->second.confirmed = false;
      trace_.emit(kernel_.now(), "dem.healed", st.cfg.name);
    }
  }
}

void Dem::operation_cycle_end() {
  // Collect first, notify after the sweep: callbacks may query stored_dtcs()
  // or report events, which must not race the erase loop.
  std::vector<Dtc> aged_out;
  for (auto it = dtcs_.begin(); it != dtcs_.end();) {
    Dtc& dtc = it->second;
    if (!dtc.confirmed) {
      ++dtc.aged;
      if (dtc.aged >= kDtcAgingCycles) {
        trace_.emit(kernel_.now(), "dem.dtc_aged_out", dtc.event);
        aged_out.push_back(dtc);
        it = dtcs_.erase(it);
        continue;
      }
    }
    ++it;
  }
  for (const auto& dtc : aged_out) {
    for (const auto& cb : aged_out_callbacks_) cb(dtc);
  }
}

void Dem::clear_all() {
  dtcs_.clear();
  for (auto& [name, st] : events_) {
    st.debounce = 0;
    st.failed = false;
  }
  trace_.emit(kernel_.now(), "dem.cleared", "all");
}

std::optional<Dtc> Dem::dtc(std::string_view event) const {
  auto it = dtcs_.find(event);
  if (it == dtcs_.end()) return std::nullopt;
  return it->second;
}

std::vector<Dtc> Dem::stored_dtcs() const {
  std::vector<Dtc> out;
  out.reserve(dtcs_.size());
  for (const auto& [name, dtc] : dtcs_) out.push_back(dtc);
  return out;
}

}  // namespace orte::bsw
