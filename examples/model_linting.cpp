// Model linting: the static validator as a design-time gate.
//
// Part 1 runs the validator over a deliberately messy body-domain model and
// prints the full structured report — one pass collects violations of seven
// different rules (dangling names, connector typing, dead connectivity, a
// cross-task data race, timing nonsense, a client-server call cycle and a
// contract incompatibility) where the generator's old first-error-wins
// checks would have surfaced exactly one.
//
// Part 2 isolates the paper's concurrency point: the SAME producer/consumer
// topology is a torn-read hazard when the accesses are declared explicit
// (live RTE slot, different-priority preemptive tasks) and provably clean
// when declared implicit (task-boundary buffered), which is precisely what
// rule V4 separates.
//
// Part 3 exercises the whole-program rules (V8..V12) on a two-ECU chain
// model — transitive range conflicts no pairwise check can see, an
// end-to-end deadline the holistic analysis refutes, uncovered contract
// obligations, oversubscribed resource budgets and a dead relay chain —
// and exports the combined report as SARIF 2.1.0 (model_lint.sarif, or the
// path given as argv[1]) for CI code-scanning upload.
//
// Part 4 is the fault-detectability gate (V13..V15): the brake-by-wire
// campaign workload is fail-silent on a producer crash (V13) because its
// periodic guarantees have no watchdog alive supervision (V15); moved to an
// event-triggered bus its babbling idiot becomes detectable-but-never-
// containable (V14); and binding alive supervision — one DeploymentPlan
// flag — clears V13/V15. Exit-enforced like Part 3.
#include <cstdio>

#include "contracts/contract.hpp"
#include "fi/workloads.hpp"
#include "rv/trace_export.hpp"
#include "sim/time.hpp"
#include "validation/sarif.hpp"
#include "validation/validator.hpp"
#include "vfb/deployment.hpp"
#include "vfb/model.hpp"

using namespace orte;
using sim::milliseconds;
using vfb::Composition;
using vfb::DataAccessKind;
using vfb::DataElement;
using vfb::DeploymentPlan;
using vfb::Operation;
using vfb::Port;
using vfb::PortDirection;
using vfb::PortInterface;
using vfb::Runnable;
using vfb::RunnableTrigger;

namespace {

PortInterface sr_interface(std::string name) {
  PortInterface i;
  i.name = std::move(name);
  i.kind = PortInterface::Kind::kSenderReceiver;
  i.elements.push_back(DataElement{"val", 32, 0, false});
  return i;
}

/// Producer (5 ms) -> consumer (10 ms) on one ECU, access kinds chosen by
/// the caller: the V4 demo model.
Composition speed_pipeline(DataAccessKind write_kind,
                           DataAccessKind read_kind) {
  Composition c;
  c.add_interface(sr_interface("ISpeed"));
  Runnable produce{.name = "produce",
                   .trigger = RunnableTrigger::timing(milliseconds(5))};
  produce.accesses.push_back({"speed_out", "val", write_kind});
  Runnable consume{.name = "consume",
                   .trigger = RunnableTrigger::timing(milliseconds(10))};
  consume.accesses.push_back({"speed_in", "val", read_kind});
  c.add_type({"WheelSensor",
              {Port{"speed_out", "ISpeed", PortDirection::kProvided}},
              {produce}});
  c.add_type({"Display",
              {Port{"speed_in", "ISpeed", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"sensor", "WheelSensor"});
  c.add_instance({"display", "Display"});
  c.add_connector({"sensor", "speed_out", "display", "speed_in"});
  return c;
}

void print_report(const char* title,
                  const validation::Diagnostics& report) {
  std::printf("=== %s ===\n", title);
  std::printf("%zu finding(s): %zu error(s), %zu warning(s), %zu info(s)\n",
              report.size(), report.count(validation::Severity::kError),
              report.count(validation::Severity::kWarning),
              report.count(validation::Severity::kInfo));
  std::printf("rules hit:");
  for (const auto& rule : report.rules()) std::printf(" %s", rule.c_str());
  std::printf("\n%s\n", report.render().c_str());
}

/// Part 3 model: two-ECU cause-effect chains engineered so every
/// whole-program rule (V8..V12) has at least one firing.
Composition chain_model() {
  Composition c;
  c.add_interface(sr_interface("IValue"));

  // Speedometer: autonomous 5 ms producer, guaranteed range [0, 100].
  Runnable sample{.name = "sample",
                  .trigger = RunnableTrigger::timing(milliseconds(5))};
  sample.wcet_bound = sim::milliseconds(1);
  sample.accesses.push_back(
      {"speed", "val", DataAccessKind::kImplicitWrite});
  c.add_type({"Speedometer",
              {Port{"speed", "IValue", PortDirection::kProvided}},
              {sample}});

  // Mixer: autonomous producer WITHOUT any range guarantee — the
  // unconstrained transitive source V8 warns about.
  Runnable mix{.name = "mix",
               .trigger = RunnableTrigger::timing(milliseconds(10))};
  mix.wcet_bound = sim::microseconds(200);
  mix.accesses.push_back({"noise", "val", DataAccessKind::kImplicitWrite});
  c.add_type({"Mixer",
              {Port{"noise", "IValue", PortDirection::kProvided}},
              {mix}});

  // Scaler: contract-free relay — V7 cannot bridge across it, V8 can.
  Runnable scale{.name = "scale",
                 .trigger = RunnableTrigger::data_received("in", "val")};
  scale.wcet_bound = sim::microseconds(500);
  scale.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  scale.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  c.add_type({"Scaler",
              {Port{"in", "IValue", PortDirection::kRequired},
               Port{"out", "IValue", PortDirection::kProvided}},
              {scale}});

  // Hmi: end consumer with range + latency assumptions (V8 / V9 targets).
  Runnable show{.name = "show",
                .trigger = RunnableTrigger::data_received("disp", "val")};
  show.wcet_bound = sim::microseconds(300);
  show.accesses.push_back({"disp", "val", DataAccessKind::kImplicitRead});
  c.add_type({"Hmi",
              {Port{"disp", "IValue", PortDirection::kRequired}},
              {show}});

  // Echo: relay whose input is never connected — everything downstream of
  // it can only ever see initial values (the V12 dead-flow chain).
  Runnable echo{.name = "echo",
                .trigger = RunnableTrigger::timing(milliseconds(20))};
  echo.wcet_bound = sim::microseconds(100);
  echo.accesses.push_back({"ein", "val", DataAccessKind::kImplicitRead});
  echo.accesses.push_back({"eout", "val", DataAccessKind::kImplicitWrite});
  c.add_type({"Echo",
              {Port{"ein", "IValue", PortDirection::kRequired},
               Port{"eout", "IValue", PortDirection::kProvided}},
              {echo}});

  c.add_instance({"source", "Speedometer"});
  c.add_instance({"mixer", "Mixer"});
  c.add_instance({"scaler", "Scaler"});
  c.add_instance({"hmi", "Hmi"});
  c.add_instance({"gauge", "Hmi"});
  c.add_instance({"tap", "Hmi"});
  c.add_instance({"relay", "Echo"});

  c.add_connector({"source", "speed", "scaler", "in"});  // cross-ECU
  c.add_connector({"scaler", "out", "hmi", "disp"});     // same-ECU pipeline
  c.add_connector({"mixer", "noise", "gauge", "disp"});  // cross-ECU
  c.add_connector({"relay", "eout", "tap", "disp"});     // dead relay chain
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  // --- Part 1: one messy model, seven rules in one report --------------------
  Composition c;
  c.add_interface(sr_interface("ISpeed"));
  PortInterface wide = sr_interface("ISpeedStamped");
  wide.elements.push_back(DataElement{"timestamp", 32, 0, false});
  c.add_interface(wide);
  PortInterface calc;
  calc.name = "ICalibrate";
  calc.kind = PortInterface::Kind::kClientServer;
  calc.operations.push_back(Operation{"adjust", milliseconds(1)});
  c.add_interface(calc);

  // Sensor: explicit 5 ms writer whose declared WCET exceeds its period (V5),
  // plus a client-server port caught in a call cycle (V6).
  Runnable sense{.name = "sense",
                 .trigger = RunnableTrigger::timing(milliseconds(5))};
  sense.wcet_bound = milliseconds(6);
  sense.accesses.push_back(
      {"speed_out", "val", DataAccessKind::kExplicitWrite});
  sense.server_calls.push_back("cal.adjust");
  c.add_type({"WheelSensor",
              {Port{"speed_out", "ISpeed", PortDirection::kProvided},
               Port{"cal", "ICalibrate", PortDirection::kRequired},
               Port{"srv", "ICalibrate", PortDirection::kProvided}},
              {sense}});

  // Calibrator: calls the sensor back — a synchronous call cycle (V6).
  Runnable tune{.name = "tune",
                .trigger = RunnableTrigger::timing(milliseconds(20))};
  tune.server_calls.push_back("back.adjust");
  c.add_type({"Calibrator",
              {Port{"srv", "ICalibrate", PortDirection::kProvided},
               Port{"back", "ICalibrate", PortDirection::kRequired}},
              {tune}});
  c.set_operation_handler("WheelSensor", "srv", "adjust",
                          [](std::uint64_t v) { return v; });
  c.set_operation_handler("Calibrator", "srv", "adjust",
                          [](std::uint64_t v) { return v + 1; });

  // Display: explicit 10 ms reader (V4 victim) whose second port reads a
  // differently-typed interface than its feed (V2) and whose third port is
  // read but never connected (V3).
  Runnable show{.name = "show",
                .trigger = RunnableTrigger::timing(milliseconds(10))};
  show.accesses.push_back({"speed_in", "val", DataAccessKind::kExplicitRead});
  show.accesses.push_back({"stamped_in", "val", DataAccessKind::kImplicitRead});
  show.accesses.push_back({"trim_in", "val", DataAccessKind::kImplicitRead});
  c.add_type({"Display",
              {Port{"speed_in", "ISpeed", PortDirection::kRequired},
               Port{"stamped_in", "ISpeedStamped", PortDirection::kRequired},
               Port{"trim_in", "ISpeed", PortDirection::kRequired}},
              {show}});

  c.add_instance({"sensor", "WheelSensor"});
  c.add_instance({"calib", "Calibrator"});
  c.add_instance({"display", "Display"});
  c.add_instance({"logger", "DataLogger"});  // V1: type never declared
  c.add_connector({"sensor", "speed_out", "display", "speed_in"});
  c.add_connector({"sensor", "speed_out", "display", "stamped_in"});  // V2
  c.add_connector({"calib", "srv", "sensor", "cal"});
  c.add_connector({"sensor", "srv", "calib", "back"});

  DeploymentPlan plan;
  plan.instances["sensor"] = {.ecu = "body"};
  plan.instances["calib"] = {.ecu = "body"};
  plan.instances["display"] = {.ecu = "body"};
  // V1: "logger" has no deployment at all.

  // V7: the sensor guarantees a wider speed range than the display assumes.
  contracts::Contract sensor_contract{.name = "CSensor"};
  sensor_contract.guarantees.push_back(
      contracts::FlowSpec{.flow = "speed_out.val",
                          .range = {0, 300}});
  contracts::Contract display_contract{.name = "CDisplay"};
  display_contract.assumptions.push_back(
      contracts::FlowSpec{.flow = "speed_in.val",
                          .range = {0, 260}});

  c.bind_contract("sensor", sensor_contract);
  c.bind_contract("display", display_contract);
  const auto report = validation::validate(c, plan);
  print_report("full lint of the messy body-domain model", report);

  // --- Part 2: the V4 race, and its implicit twin ----------------------------
  DeploymentPlan one_ecu;
  one_ecu.instances["sensor"] = {.ecu = "body"};
  one_ecu.instances["display"] = {.ecu = "body"};

  const auto racy = validation::validate(
      speed_pipeline(DataAccessKind::kExplicitWrite,
                     DataAccessKind::kExplicitRead),
      one_ecu);
  print_report("explicit accesses across two task priorities", racy);

  const auto buffered = validation::validate(
      speed_pipeline(DataAccessKind::kImplicitWrite,
                     DataAccessKind::kImplicitRead),
      one_ecu);
  print_report("same topology, implicit (buffered) accesses", buffered);

  std::printf("race detected with explicit accesses: %s\n",
              racy.by_rule("V4").empty() ? "no" : "yes");
  std::printf("race detected with implicit accesses: %s\n",
              buffered.by_rule("V4").empty() ? "no" : "yes");

  // --- Part 3: whole-program rules V8..V12 on a two-ECU chain model ----------
  Composition chains = chain_model();

  DeploymentPlan chain_plan;
  chain_plan.instances["source"] = {.ecu = "front"};
  chain_plan.instances["mixer"] = {.ecu = "front"};
  chain_plan.instances["scaler"] = {.ecu = "rear"};
  chain_plan.instances["hmi"] = {.ecu = "rear"};
  chain_plan.instances["gauge"] = {.ecu = "rear"};
  chain_plan.instances["tap"] = {.ecu = "rear"};
  chain_plan.instances["relay"] = {.ecu = "rear"};

  // Source: range guarantee [0,100] on the chain head, a guarantee on a flow
  // that resolves to nothing (V10), and a vertical CPU assumption far below
  // the generated 1ms/5ms load (V11 warning).
  contracts::Contract c_source{.name = "CSource"};
  c_source.guarantees.push_back(
      contracts::FlowSpec{.flow = "speed.val",
                          .range = {0, 100},
                          .timing = {.period = milliseconds(5)}});
  c_source.guarantees.push_back(
      contracts::FlowSpec{.flow = "ghost",
                          .timing = {.period = milliseconds(1)}});
  c_source.vertical.cpu_utilization = 0.001;

  // Mixer: no flow guarantees at all, but a vertical assumption that
  // oversubscribes the front ECU together with the source (V11 error).
  contracts::Contract c_mixer{.name = "CMixer"};
  c_mixer.vertical.cpu_utilization = 1.1;

  // Hmi: assumes [200,300] from a chain whose transitive source guarantees
  // [0,100] — empty intersection through the contract-free scaler (V8
  // error) — plus a 50 us end-to-end deadline the holistic analysis refutes
  // (V9 error) and a relaxed 500 ms obligation it confirms (V9 info).
  contracts::Contract c_hmi{.name = "CHmi"};
  c_hmi.assumptions.push_back(
      contracts::FlowSpec{.flow = "disp.val", .range = {200, 300}});
  c_hmi.assumptions.push_back(
      contracts::FlowSpec{.flow = "disp.val",
                          .timing = {.latency = sim::microseconds(50)}});
  c_hmi.assumptions.push_back(
      contracts::FlowSpec{.flow = "disp",
                          .timing = {.latency = milliseconds(500)}});

  // Gauge: a range assumption fed by the guarantee-free mixer — the
  // unconstrained transitive source (V8 warning).
  contracts::Contract c_gauge{.name = "CGauge"};
  c_gauge.assumptions.push_back(
      contracts::FlowSpec{.flow = "disp.val", .range = {0, 50}});

  chains.bind_contract("source", c_source);
  chains.bind_contract("mixer", c_mixer);
  chains.bind_contract("hmi", c_hmi);
  chains.bind_contract("gauge", c_gauge);
  const auto chain_report = validation::validate(chains, chain_plan);
  print_report("whole-program chain analysis (V8..V12)", chain_report);
  for (const char* rule : {"V8", "V9", "V10", "V11", "V12"}) {
    std::printf("%s findings: %zu\n", rule,
                chain_report.by_rule(rule).size());
  }

  // SARIF export of the whole-program report for CI code scanning.
  const std::string sarif_path =
      argc > 1 ? argv[1] : std::string("model_lint.sarif");
  rv::write_file(sarif_path, validation::to_sarif(chain_report));
  std::printf("SARIF report      : %s\n", sarif_path.c_str());

  const bool all_fired = !chain_report.by_rule("V8").empty() &&
                         !chain_report.by_rule("V9").empty() &&
                         !chain_report.by_rule("V10").empty() &&
                         !chain_report.by_rule("V11").empty() &&
                         !chain_report.by_rule("V12").empty();
  std::printf("all whole-program rules fired: %s\n", all_fired ? "yes" : "no");

  // --- Part 4: fault detectability & fail-silence (V13..V15) -----------------
  // The campaign workload, as shipped: periodic pedal guarantees, no alive
  // supervision. The crash of the pedal is fail-silent (V13) and every
  // periodic sender flow lacks a watchdog binding (V15).
  const fi::ModelBundle unsupervised = fi::workloads::brake_by_wire();
  const auto fail_silent =
      validation::validate(unsupervised.model, unsupervised.plan);
  print_report("campaign workload, no alive supervision (V13/V15)",
               fail_silent);

  // Same model on an event-triggered bus: TDMA slotting no longer contains
  // the babbling idiot structurally, so it becomes detectable — but every
  // observing monitor blames a victim, never the rogue node (V14).
  fi::ModelBundle on_can = fi::workloads::brake_by_wire();
  on_can.plan.bus = vfb::BusKind::kCan;
  const auto babbler = validation::validate(on_can.model, on_can.plan);
  std::printf("babbler containment gap on CAN (V14): %zu finding(s)\n\n",
              babbler.by_rule("V14").size());

  // The one-flag fix: DeploymentPlan::alive_supervision binds per-ECU
  // watchdog alive supervision from the contract periods; the crash plane
  // becomes observable and V13/V15 clear.
  const fi::ModelBundle supervised = fi::workloads::brake_by_wire(true);
  const auto watched =
      validation::validate(supervised.model, supervised.plan);
  print_report("same workload, watchdog alive supervision bound", watched);

  const bool detectability_gate = !fail_silent.by_rule("V13").empty() &&
                                  !fail_silent.by_rule("V15").empty() &&
                                  !babbler.by_rule("V14").empty() &&
                                  watched.by_rule("V13").empty() &&
                                  watched.by_rule("V15").empty();
  std::printf("crash fail-silent without watchdog, fixed by one flag: %s\n",
              detectability_gate ? "yes" : "no");
  return (all_fired && detectability_gate) ? 0 : 1;
}
