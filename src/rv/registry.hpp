// MonitorRegistry: the fan-in point of the runtime-verification layer. It
// subscribes ONE listener to the sim::Trace and routes each record through
// one (category_id, subject_id) table built at attach() time from the keys
// each monitor's subscribe() returns: one category lookup, one subject
// lookup, then the monitors of that key in attach order — cost per record
// is O(1) in the monitor count, zero for categories nobody watches.
//
// Violations flow three ways, mirroring §4's error-containment story:
//  (a) recorded in the queryable HealthReport, which keeps *rate-based*
//      per-contract stats: violating vs total judged observations, so a
//      spec with confidence c tolerates ⌊(1-c)·N⌋ violations per window
//      before its budget is exceeded (a single noisy 99 %-confidence
//      contract no longer degrades a whole ECU),
//  (b) reported to bsw::Dem as failed events (auto-registered per contract)
//      while the contract is over budget, so DTCs debounce and mature
//      exactly like any other monitored fault; flush() closes each
//      evaluation window and reports *passed* for contracts back within
//      budget, letting their DTCs heal and age,
//  (c) escalated: once an over-budget contract accumulates enough window
//      violations, a bsw::ModeMachine transition into a degraded mode is
//      requested and an optional quarantine hook fires (vfb::System wires
//      it to drop the offending SWC's outputs — graceful degradation, the
//      runtime twin of the isolation layer's budget enforcement).
//
// The loop then CLOSES (§2 "consistent and non-ambiguous error handling"):
// the registry subscribes to Dem::on_aged_out, and when a contract DTC ages
// out after debounced healthy operation cycles it releases the matching RTE
// quarantine (release hook, pre-wired by vfb::System), resyncs the
// contract's monitors, requests the recovery mode, and re-arms escalation —
// violate → degrade → heal → age out → recover → re-arm, no manual release.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "rv/health.hpp"
#include "rv/monitors.hpp"
#include "sim/trace.hpp"

namespace orte::rv {

class MonitorRegistry {
 public:
  using ViolationCallback = std::function<void(const Violation&)>;
  /// Receives the instance to sanction (the cause's Violation::blame).
  using QuarantineHook = std::function<void(const std::string& instance,
                                            const Violation& cause)>;
  /// Receives the instance to rehabilitate when its contract's DTC aged out.
  using ReleaseHook = std::function<void(const std::string& instance)>;

  explicit MonitorRegistry(sim::Trace& trace);
  MonitorRegistry(const MonitorRegistry&) = delete;
  MonitorRegistry& operator=(const MonitorRegistry&) = delete;

  // --- Population -----------------------------------------------------------
  ArrivalMonitor& add_arrival(ArrivalSpec spec);
  DeadlineMonitor& add_deadline(DeadlineSpec spec);
  LatencyMonitor& add_latency(LatencySpec spec);
  RangeMonitor& add_range(RangeSpec spec);
  AutomatonMonitor& add_automaton(AutomatonSpec spec);
  void add(std::unique_ptr<Monitor> monitor);

  // --- Escalation wiring ----------------------------------------------------
  /// Report over-budget contracts as failed DEM events "rv.<contract>";
  /// events are auto-registered on first use with the given debounce
  /// threshold, so a DTC matures only after `debounce_threshold` over-budget
  /// violations. Also subscribes to DTC aging: when "rv.<contract>" ages
  /// out, the matching quarantine is released, the contract's monitors are
  /// resynced, and (once no contract DTC remains) the recovery mode is
  /// requested and escalation re-armed.
  void report_to(bsw::Dem& dem, std::int32_t debounce_threshold = 1);
  /// Request `degraded_mode` once a single contract is over its violation
  /// budget with at least `threshold` window violations (re-armed by
  /// recovery). A threshold of 0 is coerced to 1.
  void escalate_to(bsw::ModeMachine& modes, std::string degraded_mode,
                   std::size_t threshold = 1);
  /// Called with the offending instance when escalation triggers. Inert
  /// until escalate_to() arms escalation (vfb::System pre-wires this hook;
  /// sanctions need the integrator's explicit opt-in to a degraded mode).
  void quarantine_with(QuarantineHook hook);
  /// Called with the rehabilitated instance when its contract's DTC ages
  /// out (vfb::System pre-wires this to Rte::release).
  void release_with(ReleaseHook hook);
  /// Mode requested when the last contract DTC ages out after an
  /// escalation. Empty (the default) = return to the mode that was current
  /// when escalation fired. The transition must be declared on the mode
  /// machine (e.g. DEGRADED -> RUN) or the request is rejected.
  void recover_to(std::string recovery_mode);
  void on_violation(ViolationCallback cb);

  /// Feed a violation raised OUTSIDE the trace-routed monitors into the
  /// registry pipeline (health stats, DEM reporting, callbacks, escalation)
  /// — the fan-in for detectors that are not trace observers, e.g. watchdog
  /// alive supervision (vfb::System reports expiries as kind "alive").
  void report_external(const Violation& violation);

  // --- Evaluation -----------------------------------------------------------
  /// Close one evaluation window: pull every monitor's observation count
  /// into the health report, report each known contract to the DEM (failed
  /// while over budget, passed when back within), evaluate escalation for
  /// over-budget contracts, then start a new window. Call periodically
  /// (e.g. once per operation cycle, before Dem::operation_cycle_end) — the
  /// heartbeat of the §2 loop.
  void flush();

  // --- Queries --------------------------------------------------------------
  [[nodiscard]] const HealthReport& health() const { return health_; }
  [[nodiscard]] std::size_t monitor_count() const { return monitors_.size(); }
  /// Records whose category at least one monitor subscribes to, whether or
  /// not a monitor watches their subject.
  [[nodiscard]] std::uint64_t records_routed() const {
    return records_routed_;
  }
  /// Of the routed records, how many were delivered to at least one
  /// monitor (their (category, subject) key is watched).
  [[nodiscard]] std::uint64_t records_delivered() const {
    return records_delivered_;
  }
  /// Every attached latency monitor, in attach order — the static/dynamic
  /// cross-check surface (each spec carries the holistic static_bound next
  /// to the monitor's observed worst()).
  [[nodiscard]] std::vector<const LatencyMonitor*> latency_monitors() const;
  [[nodiscard]] bool escalated() const { return escalated_; }
  /// Completed violate→degrade→heal→recover cycles.
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 private:
  /// Monitors of one watched category, keyed by interned subject ID.
  using CategoryRow = std::unordered_map<sim::TraceId, std::vector<Monitor*>>;

  /// Per-contract escalation bookkeeping.
  struct ContractCtx {
    std::vector<Monitor*> monitors;
    std::string quarantined_instance;  ///< Empty = not quarantined by us.
    Violation last_violation;          ///< Cause for flush-time escalation.
    bool has_violation = false;
  };

  void attach(Monitor& monitor);
  void handle(const Violation& v);
  /// Pull cumulative observations of `contract`'s monitors into health_.
  void sync_observations(const std::string& contract, const ContractCtx& ctx);
  void report_budget_to_dem(const std::string& contract, bool over);
  void escalate(const Violation& cause);
  void handle_aged_out(const bsw::Dtc& dtc);

  sim::Trace& trace_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::unordered_map<sim::TraceId, CategoryRow> index_;
  std::map<std::string, ContractCtx, std::less<>> contracts_;
  HealthReport health_;
  std::vector<ViolationCallback> callbacks_;

  bsw::Dem* dem_ = nullptr;
  std::int32_t dem_threshold_ = 1;
  bool dem_subscribed_ = false;
  std::set<std::string, std::less<>> dem_events_;  ///< Auto-registered.
  bsw::ModeMachine* modes_ = nullptr;
  std::string degraded_mode_;
  std::string recovery_mode_;        ///< Explicit target; "" = snapshot.
  std::string pre_escalation_mode_;  ///< Captured when escalation fired.
  std::size_t escalation_threshold_ = 1;
  bool escalated_ = false;
  std::uint64_t recoveries_ = 0;
  QuarantineHook quarantine_;
  ReleaseHook release_;
  std::uint64_t records_routed_ = 0;
  std::uint64_t records_delivered_ = 0;
};

/// Stable 24-bit DTC code for a contract name (FNV-1a folded), so the same
/// contract reports the same DTC across runs without a central registry.
[[nodiscard]] std::uint32_t contract_dtc_code(std::string_view contract);

}  // namespace orte::rv
