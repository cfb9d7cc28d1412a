#include "rv/registry.hpp"

#include <stdexcept>
#include <utility>

namespace orte::rv {

namespace {

constexpr std::string_view kDemPrefix = "rv.";

}  // namespace

std::uint32_t contract_dtc_code(std::string_view contract) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : contract) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>((h ^ (h >> 24)) & 0xFFFFFFu);
}

MonitorRegistry::MonitorRegistry(sim::Trace& trace) : trace_(trace) {
  // ID-only subscription: the registry routes and delivers on interned IDs
  // exclusively, so its presence never forces the trace to materialize
  // name strings for unwatched — or even watched — records.
  trace_.subscribe_ids([this](const sim::TraceEvent& rec) {
    const auto row = index_.find(rec.category_id);
    if (row == index_.end()) return;  // category nobody watches
    ++records_routed_;
    const auto cell = row->second.find(rec.subject_id);
    if (cell == row->second.end()) return;
    ++records_delivered_;
    for (Monitor* m : cell->second) m->observe(rec);
  });
}

void MonitorRegistry::attach(Monitor& monitor) {
  monitor.bind([this](const Violation& v) { handle(v); });
  contracts_[monitor.contract()].monitors.push_back(&monitor);
  for (const Monitor::Key& key : monitor.subscribe(trace_)) {
    std::vector<Monitor*>& cell = index_[key.category][key.subject];
    // A key named twice is entered once, so each record reaches the monitor
    // once; the monitor being attached is always the cell's newest entry.
    if (cell.empty() || cell.back() != &monitor) cell.push_back(&monitor);
  }
}

ArrivalMonitor& MonitorRegistry::add_arrival(ArrivalSpec spec) {
  auto m = std::make_unique<ArrivalMonitor>(std::move(spec));
  ArrivalMonitor& ref = *m;
  add(std::move(m));
  return ref;
}

DeadlineMonitor& MonitorRegistry::add_deadline(DeadlineSpec spec) {
  auto m = std::make_unique<DeadlineMonitor>(std::move(spec));
  DeadlineMonitor& ref = *m;
  add(std::move(m));
  return ref;
}

LatencyMonitor& MonitorRegistry::add_latency(LatencySpec spec) {
  auto m = std::make_unique<LatencyMonitor>(std::move(spec));
  LatencyMonitor& ref = *m;
  add(std::move(m));
  return ref;
}

RangeMonitor& MonitorRegistry::add_range(RangeSpec spec) {
  auto m = std::make_unique<RangeMonitor>(std::move(spec));
  RangeMonitor& ref = *m;
  add(std::move(m));
  return ref;
}

AutomatonMonitor& MonitorRegistry::add_automaton(AutomatonSpec spec) {
  auto m = std::make_unique<AutomatonMonitor>(std::move(spec));
  AutomatonMonitor& ref = *m;
  add(std::move(m));
  return ref;
}

void MonitorRegistry::add(std::unique_ptr<Monitor> monitor) {
  attach(*monitor);
  monitors_.push_back(std::move(monitor));
}

std::vector<const LatencyMonitor*> MonitorRegistry::latency_monitors() const {
  std::vector<const LatencyMonitor*> out;
  for (const auto& m : monitors_) {
    if (const auto* lat = dynamic_cast<const LatencyMonitor*>(m.get())) {
      out.push_back(lat);
    }
  }
  return out;
}

void MonitorRegistry::report_to(bsw::Dem& dem,
                                std::int32_t debounce_threshold) {
  dem_ = &dem;
  dem_threshold_ = debounce_threshold;
  if (!dem_subscribed_) {
    dem_subscribed_ = true;
    dem.on_aged_out([this](const bsw::Dtc& dtc) { handle_aged_out(dtc); });
  }
}

void MonitorRegistry::escalate_to(bsw::ModeMachine& modes,
                                  std::string degraded_mode,
                                  std::size_t threshold) {
  modes_ = &modes;
  degraded_mode_ = std::move(degraded_mode);
  escalation_threshold_ = threshold == 0 ? 1 : threshold;
}

void MonitorRegistry::quarantine_with(QuarantineHook hook) {
  quarantine_ = std::move(hook);
}

void MonitorRegistry::release_with(ReleaseHook hook) {
  release_ = std::move(hook);
}

void MonitorRegistry::recover_to(std::string recovery_mode) {
  recovery_mode_ = std::move(recovery_mode);
}

void MonitorRegistry::on_violation(ViolationCallback cb) {
  callbacks_.push_back(std::move(cb));
}

void MonitorRegistry::report_external(const Violation& violation) {
  handle(violation);
}

void MonitorRegistry::sync_observations(const std::string& contract,
                                        const ContractCtx& ctx) {
  std::uint64_t total = 0;
  double confidence = 1.0;
  for (const Monitor* m : ctx.monitors) {
    total += m->observations();
    if (m->confidence() < confidence) confidence = m->confidence();
  }
  health_.note_observations(contract, total, confidence);
}

void MonitorRegistry::report_budget_to_dem(const std::string& contract,
                                           bool over) {
  const std::string event = std::string(kDemPrefix) + contract;
  if (dem_events_.insert(event).second) {
    try {
      dem_->add_event({event, dem_threshold_, contract_dtc_code(contract)});
    } catch (const std::invalid_argument&) {
      // Already registered by the user (e.g. with a custom DTC code).
    }
  }
  dem_->report(event,
               over ? bsw::EventStatus::kFailed : bsw::EventStatus::kPassed);
}

void MonitorRegistry::handle(const Violation& v) {
  health_.record(v);
  ContractCtx& ctx = contracts_[v.contract];
  ctx.last_violation = v;
  ctx.has_violation = true;
  sync_observations(v.contract, ctx);

  // The budget verdict decides everything downstream: a violation within a
  // sub-1.0-confidence spec's tolerated rate is recorded for diagnosis but
  // neither maintained in the DEM nor escalated.
  const HealthReport::ContractStats& stats = *health_.stats(v.contract);
  const bool over = stats.over_budget();

  if (dem_ != nullptr && over) report_budget_to_dem(v.contract, true);

  for (const auto& cb : callbacks_) cb(v);

  // Escalation must be armed explicitly (escalate_to): the quarantine hook
  // alone — pre-wired by vfb::System — must not sanction anyone unless the
  // integrator opted into a degraded mode.
  if (!escalated_ && modes_ != nullptr && over &&
      stats.window_violating() >= escalation_threshold_) {
    escalate(v);
  }
}

void MonitorRegistry::escalate(const Violation& cause) {
  escalated_ = true;
  pre_escalation_mode_ = modes_->current();
  modes_->request(degraded_mode_);
  if (quarantine_) {
    contracts_[cause.contract].quarantined_instance = cause.blame;
    quarantine_(cause.blame, cause);
  }
}

void MonitorRegistry::flush() {
  for (auto& [contract, ctx] : contracts_) {
    sync_observations(contract, ctx);
  }
  for (const auto& [contract, stats] : health_.contract_stats()) {
    const bool over = stats.over_budget();
    // Only contracts the DEM already knows get passed-reports: a contract
    // that never went over budget has no event to heal, and inventing one
    // would pollute the event table.
    if (dem_ != nullptr &&
        (over || dem_events_.count(std::string(kDemPrefix) + contract) > 0)) {
      report_budget_to_dem(contract, over);
    }
    if (!escalated_ && modes_ != nullptr && over &&
        stats.window_violating() >= escalation_threshold_) {
      auto it = contracts_.find(contract);
      if (it != contracts_.end() && it->second.has_violation) {
        escalate(it->second.last_violation);
      }
    }
  }
  health_.close_windows();
}

void MonitorRegistry::handle_aged_out(const bsw::Dtc& dtc) {
  if (dtc.event.rfind(kDemPrefix, 0) != 0) return;
  if (dem_events_.find(dtc.event) == dem_events_.end()) return;
  const std::string contract = dtc.event.substr(kDemPrefix.size());

  auto it = contracts_.find(contract);
  if (it != contracts_.end()) {
    if (!it->second.quarantined_instance.empty()) {
      if (release_) release_(it->second.quarantined_instance);
      it->second.quarantined_instance.clear();
    }
    // The sanction gap must not be judged: re-anchor incremental state so
    // the first post-release observation starts a fresh interval/chain.
    for (Monitor* m : it->second.monitors) m->resync();
  }
  health_.close_window(contract);

  // Recovery: once no contract DTC remains stored, the degraded episode is
  // over — return to the declared recovery mode (or the mode that was
  // current when escalation fired) and re-arm.
  if (!escalated_ || modes_ == nullptr) return;
  for (const auto& event : dem_events_) {
    if (dem_->dtc(event).has_value()) return;  // another contract still sick
  }
  escalated_ = false;
  ++recoveries_;
  const std::string& target =
      recovery_mode_.empty() ? pre_escalation_mode_ : recovery_mode_;
  if (!target.empty()) modes_->request(target);
}

}  // namespace orte::rv
