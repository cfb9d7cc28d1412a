// Brake-by-wire: the safety-critical distributed application the paper's
// introduction motivates ("the increased distribution of active-safety and
// future safety-critical functions, including by-wire systems").
//
// Topology (6 ECUs on one FlexRay backbone):
//   pedal_ecu   : PedalSensor       samples the pedal every 5 ms
//   brake_ecu   : BrakeController   computes per-wheel force on reception
//   wheel_fl/fr/rl/rr : WheelActuator applies force on reception
//
// The pedal value carries its sampling timestamp, so every wheel actuator
// measures the true pedal-to-caliper latency. The example then compares the
// observed worst case against the composed analytical bound (FlexRay static
// slot latency + task responses) — the §3 methodology executed end to end.
//
// The same timing expectations are also bound as rich-component contracts
// (pedal guarantees its 5 ms sampling period, each wheel assumes a bounded
// command age), so the generated system carries an online runtime-
// verification layer: the monitors watch the run live and report into a DEM /
// mode-management escalation chain — and the chain is a closed loop. The
// drive injects a pedal-sensor fault twice: each time the violation budget
// is exceeded, a DTC matures, the vehicle degrades and the sensor is
// quarantined; once the fault clears, conforming windows heal the DTC, it
// ages out, and the registry releases the quarantine and returns the
// vehicle to RUN on its own — no manual release() anywhere. The last 100 ms
// of the trace are exported as Chrome trace_event JSON and CSV histograms.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/e2e.hpp"
#include "analysis/flexray_analysis.hpp"
#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "contracts/contract.hpp"
#include "rv/trace_export.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"
#include "vfb/system.hpp"

using namespace orte;

int main() {
  vfb::Composition model;

  vfb::PortInterface ipedal;
  ipedal.name = "IPedal";
  ipedal.elements.push_back(vfb::DataElement{"stamp", 64, 0, false});
  model.add_interface(ipedal);

  vfb::PortInterface iforce;
  iforce.name = "IForce";
  iforce.elements.push_back(vfb::DataElement{"cmd", 64, 0, false});
  model.add_interface(iforce);

  // Pedal sensor: 5 ms sampling, 100 us execution. The injectable fault
  // drops every other sample — the implemented rate halves to 10 ms,
  // breaking the 5 ms guarantee while the task itself still runs on time
  // (invisible to the scheduler, caught by the arrival monitor).
  bool pedal_fault = false;
  int fault_skip = 0;
  vfb::Runnable sample;
  sample.name = "sample";
  sample.trigger = vfb::RunnableTrigger::timing(sim::milliseconds(5));
  sample.execution_time = [] { return sim::microseconds(100); };
  sample.accesses.push_back(
      {"pedal", "stamp", vfb::DataAccessKind::kExplicitWrite});
  sample.behavior = [&pedal_fault, &fault_skip](vfb::RunnableContext& ctx) {
    if (pedal_fault && (++fault_skip % 2 == 0)) return;
    ctx.write("pedal", "stamp", static_cast<std::uint64_t>(ctx.now()));
  };
  model.add_type({"PedalSensor",
                  {vfb::Port{"pedal", "IPedal", vfb::PortDirection::kProvided}},
                  {sample}});

  // Brake controller: activated by pedal data, 300 us control law, fans the
  // force command out to all four wheels through one provided port.
  vfb::Runnable control;
  control.name = "control";
  control.trigger = vfb::RunnableTrigger::data_received("pedal", "stamp");
  control.execution_time = [] { return sim::microseconds(300); };
  control.accesses.push_back(
      {"pedal", "stamp", vfb::DataAccessKind::kExplicitRead});
  control.accesses.push_back(
      {"force", "cmd", vfb::DataAccessKind::kExplicitWrite});
  control.behavior = [](vfb::RunnableContext& ctx) {
    ctx.write("force", "cmd", ctx.read("pedal", "stamp"));
  };
  model.add_type(
      {"BrakeController",
       {vfb::Port{"pedal", "IPedal", vfb::PortDirection::kRequired},
        vfb::Port{"force", "IForce", vfb::PortDirection::kProvided}},
       {control}});

  // Wheel actuator: applies the force, records pedal-to-caliper latency.
  sim::Stats e2e_ms;
  vfb::Runnable actuate;
  actuate.name = "actuate";
  actuate.trigger = vfb::RunnableTrigger::data_received("force", "cmd");
  actuate.execution_time = [] { return sim::microseconds(150); };
  actuate.accesses.push_back(
      {"force", "cmd", vfb::DataAccessKind::kExplicitRead});
  actuate.behavior = [&e2e_ms](vfb::RunnableContext& ctx) {
    const auto stamped = static_cast<sim::Time>(ctx.read("force", "cmd"));
    e2e_ms.add(sim::to_ms(ctx.now() - stamped));
  };
  model.add_type({"WheelActuator",
                  {vfb::Port{"force", "IForce", vfb::PortDirection::kRequired}},
                  {actuate}});

  model.add_instance({"pedal", "PedalSensor"});
  model.add_instance({"brake", "BrakeController"});
  const std::vector<std::string> wheels{"wheel_fl", "wheel_fr", "wheel_rl",
                                        "wheel_rr"};
  for (const auto& w : wheels) model.add_instance({w, "WheelActuator"});
  model.add_connector({"pedal", "pedal", "brake", "pedal"});
  for (const auto& w : wheels) model.add_connector({"brake", "force", w, "force"});

  // Rich-component contracts (§3): the pedal guarantees its sampling period,
  // each wheel assumes its force command is at most 10 ms old. The System
  // generator compiles these into online monitors over the live trace.
  contracts::Contract pedal_contract;
  pedal_contract.name = "C_PedalRate";
  pedal_contract.guarantees.push_back(
      {.flow = "pedal.stamp", .timing = {.period = sim::milliseconds(5)}});
  model.bind_contract("pedal", pedal_contract);
  for (const auto& w : wheels) {
    contracts::Contract wheel_contract;
    wheel_contract.name = "C_" + w;
    wheel_contract.assumptions.push_back(
        {.flow = "force.cmd", .timing = {.latency = sim::milliseconds(10)}});
    model.bind_contract(w, wheel_contract);
  }

  vfb::DeploymentPlan plan;
  plan.bus = vfb::BusKind::kFlexRay;
  plan.instances["pedal"] = {.ecu = "pedal_ecu"};
  plan.instances["brake"] = {.ecu = "brake_ecu"};
  for (const auto& w : wheels) plan.instances[w] = {.ecu = w + "_ecu"};
  // Closed-loop recovery target: when the last contract DTC ages out, the
  // registry requests RUN again (and releases the RTE quarantine).
  plan.recovery_mode = "RUN";

  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  vfb::System sys(kernel, trace, model, plan);

  // Health-management escalation chain: over-budget contract violations
  // debounce into DEM DTCs; three strikes switch the vehicle to DEGRADED
  // (which also quarantines the offending component's outputs at its RTE).
  // The DEGRADED -> RUN transition is what the recovery path takes.
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  modes.add_transition("DEGRADED", "RUN");
  sys.monitors()->report_to(dem, /*debounce_threshold=*/3);
  sys.monitors()->escalate_to(modes, "DEGRADED", /*threshold=*/3);

  // One operation cycle = 100 ms of driving, then the rv heartbeat: flush
  // closes the evaluation window (reporting passed/failed per contract)
  // and the DEM ages healed DTCs.
  const auto heartbeat = [&] {
    sys.run_for(sim::milliseconds(100));
    sys.monitors()->flush();
    dem.operation_cycle_end();
  };
  const auto drive_until = [&](int max_beats, const auto& done) {
    for (int i = 0; i < max_beats && !done(); ++i) heartbeat();
  };
  const auto escalated = [&] { return sys.monitors()->escalated(); };
  const auto recovered = [&] { return !sys.monitors()->escalated(); };

  // Phase 1: 2 s of nominal driving.
  for (int i = 0; i < 20; ++i) heartbeat();
  const bool clean_start = sys.monitors()->health().healthy();

  // Phase 2: pedal fault — rate budget exceeded, DTC, DEGRADED, quarantine.
  pedal_fault = true;
  drive_until(10, escalated);
  const sim::Time degraded_at = kernel.now();
  const bool quarantined_once =
      sys.rte("pedal_ecu").is_quarantined("pedal") && modes.in("DEGRADED");

  // Phase 3: fault removed — the quarantined sensor's suppressed writes
  // prove conformance, the DTC heals and ages out, the registry releases
  // the quarantine and requests RUN again.
  pedal_fault = false;
  drive_until(30, recovered);
  const sim::Time recovered_at = kernel.now();

  // Phase 4 & 5: the loop re-armed itself — a re-injected fault degrades
  // again, and clears again.
  pedal_fault = true;
  drive_until(10, escalated);
  const sim::Time redegraded_at = kernel.now();
  pedal_fault = false;
  drive_until(30, recovered);
  const sim::Time rerecovered_at = kernel.now();

  // Final stretch: cruise, retaining the last 100 ms for the exports.
  for (int i = 0; i < 9; ++i) heartbeat();
  trace.enable_retention(true);
  heartbeat();

  std::printf("brake-by-wire over FlexRay, %.1f s of driving\n",
              sim::to_ms(kernel.now()) / 1000.0);
  std::printf("  pedal samples     : %llu\n",
              static_cast<unsigned long long>(
                  sys.task_of("pedal", sim::milliseconds(5))->jobs_completed()));
  std::printf("  wheel actuations  : %llu (4 wheels)\n",
              static_cast<unsigned long long>(e2e_ms.count()));
  std::printf("  pedal->caliper    : min %.3f ms  mean %.3f ms  max %.3f ms\n",
              e2e_ms.min(), e2e_ms.mean(), e2e_ms.max());
  std::printf("  jitter (max-min)  : %.3f ms\n", e2e_ms.spread());

  // Analytical bound: two FlexRay static-slot hops + three task responses.
  const auto& cfg = sys.flexray_bus()->config();
  const auto hop = analysis::flexray_static_latency(cfg);
  const auto bound = analysis::e2e_latency({
      {.name = "fr_hop1", .response = hop.worst},
      {.name = "control", .response = sim::microseconds(300)},
      {.name = "fr_hop2", .response = hop.worst},
      {.name = "actuate", .response = sim::microseconds(150)},
  });
  std::printf("  analytic bound    : %.3f ms  (%s)\n", sim::to_ms(bound.worst),
              e2e_ms.max() <= sim::to_ms(bound.worst) ? "holds" : "VIOLATED");

  // Static/dynamic cross-check: the generator ran the holistic fixpoint over
  // the same chains the LatencyMonitors watch and stamped the static bound
  // into each spec — every observed worst case must stay below it.
  const rv::MonitorRegistry& rvr = *sys.monitors();
  bool static_bound_holds = true;
  std::size_t cross_checked = 0;
  for (const rv::LatencyMonitor* lm : rvr.latency_monitors()) {
    if (lm->spec().static_bound <= 0 || lm->samples() == 0) continue;
    ++cross_checked;
    if (lm->worst() > lm->spec().static_bound) static_bound_holds = false;
  }
  const auto chain_bounds = sys.analyze().bounds;
  std::printf("  holistic bound    : %.3f ms over %zu chains (%s)\n",
              chain_bounds.empty() || !chain_bounds.front().computable
                  ? 0.0
                  : sim::to_ms(chain_bounds.front().bound),
              cross_checked,
              static_bound_holds && cross_checked > 0 ? "holds" : "VIOLATED");

  // Runtime-verification verdict for the same run.
  std::printf("  rv monitors       : %zu (%llu records routed)\n",
              rvr.monitor_count(),
              static_cast<unsigned long long>(rvr.records_routed()));
  std::printf("  rv violations     : %zu  dtcs: %zu\n", rvr.health().total(),
              dem.stored_dtcs().size());

  // Closed-loop recovery verdict (§2: error handling used for mode
  // management) — violate -> degrade -> heal -> age out -> recover, twice.
  const bool quarantine_lifted =
      !sys.rte("pedal_ecu").is_quarantined("pedal");
  const bool fully_recovered =
      modes.in("RUN") && !rvr.escalated() && rvr.recoveries() == 2;
  std::printf("  fault timeline    : degraded @ %.1f s, recovered @ %.1f s, "
              "re-degraded @ %.1f s, re-recovered @ %.1f s\n",
              sim::to_ms(degraded_at) / 1000.0,
              sim::to_ms(recovered_at) / 1000.0,
              sim::to_ms(redegraded_at) / 1000.0,
              sim::to_ms(rerecovered_at) / 1000.0);
  std::printf("  recoveries        : %llu (automatic, DTC aging driven)\n",
              static_cast<unsigned long long>(rvr.recoveries()));
  std::printf("  final mode        : %s%s\n", modes.current().c_str(),
              fully_recovered ? " (recovered)" : "");
  std::printf("  quarantine lifted : %s\n", quarantine_lifted ? "yes" : "no");

  const std::string json = rv::to_chrome_trace(trace.records());
  const std::string csv = rv::to_csv_histograms(trace.records());
  rv::write_file("/tmp/brake_by_wire_trace.json", json);
  rv::write_file("/tmp/brake_by_wire_hist.csv", csv);
  std::printf(
      "  trace export      : /tmp/brake_by_wire_trace.json (%zu bytes), "
      "/tmp/brake_by_wire_hist.csv (%zu bytes)\n",
      json.size(), csv.size());

  const bool ok = e2e_ms.max() <= sim::to_ms(bound.worst) && clean_start &&
                  quarantined_once && fully_recovered && quarantine_lifted &&
                  static_bound_holds && cross_checked > 0;
  return ok ? 0 : 1;
}
