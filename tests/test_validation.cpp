// Unit tests: static model validator (rules V1..V12), the Diagnostics API
// and the SARIF exporter.
//
// Each rule gets at least one deliberately broken model plus, where the rule
// separates safe from unsafe variants (V4 explicit vs implicit accesses,
// V8 transitive range overlap, V12 dead vs live relay chains), the passing
// twin of the broken model.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "contracts/contract.hpp"
#include "fi/fault.hpp"
#include "fi/workloads.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "validation/detectability.hpp"
#include "validation/sarif.hpp"
#include "validation/validator.hpp"
#include "vfb/model.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte::vfb;
using orte::contracts::Contract;
using orte::contracts::FlowSpec;
using orte::contracts::Interval;
using orte::sim::Kernel;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;
using orte::validation::Diagnostics;
using orte::validation::Severity;

PortInterface value_interface(std::string name) {
  PortInterface i;
  i.name = std::move(name);
  i.kind = PortInterface::Kind::kSenderReceiver;
  i.elements.push_back(DataElement{"val", 64, 0, false});
  return i;
}

PortInterface calc_interface(std::string name) {
  PortInterface i;
  i.name = std::move(name);
  i.kind = PortInterface::Kind::kClientServer;
  i.operations.push_back(Operation{"op", milliseconds(1)});
  return i;
}

Runnable timing_runnable(std::string name, orte::sim::Duration period) {
  Runnable r;
  r.name = std::move(name);
  r.trigger = RunnableTrigger::timing(period);
  return r;
}

/// Producer -> consumer over one connector; access kinds parameterized so the
/// same topology can be the V4 hazard or its safe implicit twin.
Composition pipeline(DataAccessKind write_kind, DataAccessKind read_kind,
                     std::size_t bits = 64) {
  Composition c;
  PortInterface iface = value_interface("IVal");
  iface.elements.front().bit_length = bits;
  c.add_interface(iface);
  Runnable produce = timing_runnable("produce", milliseconds(5));
  produce.accesses.push_back({"out", "val", write_kind});
  Runnable consume = timing_runnable("consume", milliseconds(10));
  consume.accesses.push_back({"in", "val", read_kind});
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {produce}});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"p", "Producer"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"p", "out", "k", "in"});
  return c;
}

DeploymentPlan same_ecu_plan() {
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "E"};
  plan.instances["k"] = {.ecu = "E"};
  return plan;
}

/// Each instance on its own ECU: a plan for tests that judge the model
/// rather than its deployment.
DeploymentPlan deploy_all(const Composition& c) {
  DeploymentPlan plan;
  for (const auto& inst : c.instances()) {
    plan.instances[inst.name] = {.ecu = inst.name};
  }
  return plan;
}

bool has_rule(const Diagnostics& d, std::string_view rule) {
  return !d.by_rule(rule).empty();
}

// --- Diagnostics container -----------------------------------------------------

TEST(Diagnostics, RendersErrorsBeforeWarningsBeforeInfos) {
  Diagnostics d;
  d.add("V3", Severity::kInfo, "a.b", "dead element");
  d.add("V4", Severity::kWarning, "c.d", "race", "buffer it");
  d.add("V1", Severity::kError, "e.f", "dangling");
  const std::string report = d.render();
  const auto err = report.find("error[V1]");
  const auto warn = report.find("warning[V4]");
  const auto info = report.find("info[V3]");
  ASSERT_NE(err, std::string::npos);
  ASSERT_NE(warn, std::string::npos);
  ASSERT_NE(info, std::string::npos);
  EXPECT_LT(err, warn);
  EXPECT_LT(warn, info);
  EXPECT_NE(report.find("(hint: buffer it)"), std::string::npos);
}

TEST(Diagnostics, CountsAndFilters) {
  Diagnostics d;
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.has_errors());
  d.add("V2", Severity::kError, "x", "one");
  d.add("V2", Severity::kError, "y", "two");
  d.add("V5", Severity::kWarning, "z", "three");
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.count(Severity::kError), 2u);
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.by_rule("V2").size(), 2u);
  EXPECT_EQ(d.rules(), (std::vector<std::string>{"V2", "V5"}));
}

// --- V1: dangling references ---------------------------------------------------

TEST(ValidatorV1, DanglingNamesAreCollectedNotThrown) {
  Composition c;
  c.add_type({"T", {Port{"out", "INope", PortDirection::kProvided}}, {}});
  c.add_instance({"a", "T"});
  c.add_instance({"b", "Ghost"});
  c.add_connector({"a", "out", "zombie", "in"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  ASSERT_TRUE(has_rule(d, "V1"));
  EXPECT_GE(d.by_rule("V1").size(), 3u);  // interface, type, connector end
  EXPECT_NE(d.render().find("unknown interface INope"), std::string::npos);
  EXPECT_NE(d.render().find("unknown component type Ghost"),
            std::string::npos);
}

TEST(ValidatorV1, MissingDeploymentIsAnError) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "E"};  // "k" left unmapped
  plan.instances["stranger"] = {.ecu = "E"};
  const Diagnostics d = orte::validation::validate(c, plan);
  ASSERT_TRUE(d.has_errors());
  EXPECT_NE(d.render().find("no deployment for instance k"),
            std::string::npos);
  // Deployment of a non-existent instance is only a warning.
  EXPECT_NE(d.render().find("deployment for unknown instance stranger"),
            std::string::npos);
}

// --- V2: connector and access typing -------------------------------------------

TEST(ValidatorV2, InterfaceMismatchNamesTheElementDelta) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  PortInterface wide = value_interface("IWide");
  wide.elements.push_back(DataElement{"extra", 8, 0, false});
  c.add_interface(wide);
  c.add_type({"A", {Port{"out", "IWide", PortDirection::kProvided}}, {}});
  c.add_type({"B", {Port{"in", "IVal", PortDirection::kRequired}}, {}});
  c.add_instance({"a", "A"});
  c.add_instance({"b", "B"});
  c.add_connector({"a", "out", "b", "in"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  ASSERT_TRUE(has_rule(d, "V2"));
  EXPECT_NE(d.render().find("element-set disagreement: -extra"),
            std::string::npos);
}

TEST(ValidatorV2, AllViolationsReportedInOnePass) {
  // One model, three distinct V2 defects: reversed connector, write on a
  // required port, read on a provided port. The old first-error-wins
  // validate() would have surfaced exactly one of these.
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable bad = timing_runnable("bad", milliseconds(10));
  bad.accesses.push_back({"in", "val", DataAccessKind::kExplicitWrite});
  bad.accesses.push_back({"out", "val", DataAccessKind::kExplicitRead});
  c.add_type({"A",
              {Port{"out", "IVal", PortDirection::kProvided},
               Port{"in", "IVal", PortDirection::kRequired}},
              {bad}});
  c.add_instance({"a1", "A"});
  c.add_instance({"a2", "A"});
  c.add_connector({"a1", "in", "a2", "out"});  // both ends reversed
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  EXPECT_GE(d.by_rule("V2").size(), 4u);
  EXPECT_EQ(d.count(Severity::kError), d.by_rule("V2").size());
}

TEST(ValidatorV2, CrossEcuClientServerIsAnError) {
  Composition c;
  c.add_interface(calc_interface("ICalc"));
  Runnable r = timing_runnable("r", milliseconds(10));
  r.server_calls.push_back("req.op");
  c.add_type({"Server", {Port{"srv", "ICalc", PortDirection::kProvided}}, {}});
  c.add_type({"Client", {Port{"req", "ICalc", PortDirection::kRequired}},
              {r}});
  c.set_operation_handler("Server", "srv", "op",
                          [](std::uint64_t v) { return v; });
  c.add_instance({"s", "Server"});
  c.add_instance({"cl", "Client"});
  c.add_connector({"s", "srv", "cl", "req"});
  DeploymentPlan plan;
  plan.instances["s"] = {.ecu = "A"};
  plan.instances["cl"] = {.ecu = "B"};
  const Diagnostics d = orte::validation::validate(c, plan);
  ASSERT_TRUE(d.has_errors());
  EXPECT_NE(d.render().find("client-server connector spans ECUs"),
            std::string::npos);
  // Same plan on one ECU: clean.
  plan.instances["cl"] = {.ecu = "A"};
  EXPECT_FALSE(orte::validation::validate(c, plan).has_errors());
}

TEST(ValidatorV2, ElementOutsideSignalWidthIsAnError) {
  // A cross-ECU element travels as one COM signal of 1..64 bits; strict
  // construction rejects the model with the validator's report.
  for (const std::size_t bits : {std::size_t{0}, std::size_t{65}}) {
    const Composition c = pipeline(DataAccessKind::kImplicitWrite,
                                   DataAccessKind::kImplicitRead, bits);
    DeploymentPlan plan;
    plan.instances["p"] = {.ecu = "A"};
    plan.instances["k"] = {.ecu = "B"};
    const Diagnostics d = orte::validation::validate(c, plan);
    const auto v2 = d.by_rule("V2");
    ASSERT_EQ(v2.size(), 1u) << d.render();
    EXPECT_EQ(v2.front()->severity, Severity::kError);
    EXPECT_EQ(v2.front()->subject, "IVal.val");
    Kernel kernel;
    Trace trace;
    try {
      System sys(kernel, trace, c, plan);
      ADD_FAILURE() << "a " << bits << "-bit element was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "System: model validation failed\n" + d.render());
    }
  }
}

// --- V3: connectivity ----------------------------------------------------------

TEST(ValidatorV3, ReadButUnconnectedRequiredPortWarns) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable consume = timing_runnable("consume", milliseconds(10));
  consume.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"k", "Consumer"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  EXPECT_FALSE(d.has_errors());
  const auto v3 = d.by_rule("V3");
  ASSERT_FALSE(v3.empty());
  EXPECT_EQ(v3.front()->severity, Severity::kWarning);
  EXPECT_NE(v3.front()->message.find("init value"), std::string::npos);
}

TEST(ValidatorV3, DeadElementsReportedAsInfo) {
  // Connector carries "val" but nobody writes and nobody reads it.
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Composition dead;
  dead.add_interface(value_interface("IVal"));
  dead.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
                 {}});
  dead.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
                 {}});
  dead.add_instance({"p", "Producer"});
  dead.add_instance({"k", "Consumer"});
  dead.add_connector({"p", "out", "k", "in"});
  const Diagnostics d = orte::validation::validate(dead, deploy_all(dead));
  EXPECT_FALSE(d.has_errors());
  EXPECT_GE(d.by_rule("V3").size(), 2u);  // never written + never read
  EXPECT_EQ(d.count(Severity::kInfo), d.size());
  // The live pipeline has no V3 findings at all.
  EXPECT_FALSE(has_rule(orte::validation::validate(c, deploy_all(c)), "V3"));
}

TEST(ValidatorV3, ServerCallOnUnconnectedPortIsAnError) {
  Composition c;
  c.add_interface(calc_interface("ICalc"));
  Runnable r = timing_runnable("r", milliseconds(10));
  r.server_calls.push_back("req.op");
  c.add_type({"Client", {Port{"req", "ICalc", PortDirection::kRequired}},
              {r}});
  c.add_instance({"cl", "Client"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  ASSERT_TRUE(d.has_errors());
  EXPECT_NE(d.render().find("server call on unconnected port cl.req"),
            std::string::npos);
}

// --- V4: cross-task data races -------------------------------------------------

TEST(ValidatorV4, ExplicitCrossPriorityAccessIsATornReadHazard) {
  const Composition c = pipeline(DataAccessKind::kExplicitWrite,
                                 DataAccessKind::kExplicitRead);
  const Diagnostics d = orte::validation::validate(c, same_ecu_plan());
  EXPECT_FALSE(d.has_errors());  // warning, not error: generation proceeds
  const auto v4 = d.by_rule("V4");
  ASSERT_EQ(v4.size(), 1u);
  EXPECT_EQ(v4.front()->severity, Severity::kWarning);
  EXPECT_EQ(v4.front()->subject, "k.in.val");
  // The message names the preempting and preempted generated tasks: the 5 ms
  // producer task outranks the 10 ms consumer task rate-monotonically.
  EXPECT_NE(v4.front()->message.find("torn-read"), std::string::npos);
  EXPECT_NE(v4.front()->message.find("tk|p|" +
                                     std::to_string(milliseconds(5))),
            std::string::npos);
  EXPECT_NE(v4.front()->message.find("tk|k|" +
                                     std::to_string(milliseconds(10))),
            std::string::npos);
}

TEST(ValidatorV4, ImplicitAccessesPassClean) {
  const Composition c = pipeline(DataAccessKind::kImplicitWrite,
                                 DataAccessKind::kImplicitRead);
  EXPECT_FALSE(has_rule(orte::validation::validate(c, same_ecu_plan()), "V4"));
  // Mixed: only one side buffered still races through the live slot? No —
  // the implicit side never touches the slot mid-execution.
  const Composition half = pipeline(DataAccessKind::kExplicitWrite,
                                    DataAccessKind::kImplicitRead);
  EXPECT_FALSE(
      has_rule(orte::validation::validate(half, same_ecu_plan()), "V4"));
}

TEST(ValidatorV4, CrossEcuOrSameTaskPairsDoNotRace) {
  const Composition c = pipeline(DataAccessKind::kExplicitWrite,
                                 DataAccessKind::kExplicitRead);
  DeploymentPlan split;
  split.instances["p"] = {.ecu = "A"};
  split.instances["k"] = {.ecu = "B"};
  EXPECT_FALSE(has_rule(orte::validation::validate(c, split), "V4"));
}

TEST(ValidatorV4, TimeTriggeredDispatchSerializesPeriodicPairs) {
  const Composition c = pipeline(DataAccessKind::kExplicitWrite,
                                 DataAccessKind::kExplicitRead);
  DeploymentPlan plan = same_ecu_plan();
  plan.scheduling = SchedulingPolicy::kTimeTriggered;
  EXPECT_FALSE(has_rule(orte::validation::validate(c, plan), "V4"));
}

TEST(ValidatorV4, EventTaskReaderStillRacesUnderTimeTriggered) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(5));
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  Runnable on_val;
  on_val.name = "on_val";
  on_val.trigger = RunnableTrigger::data_received("in", "val");
  on_val.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {produce}});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {on_val}});
  c.add_instance({"p", "Producer"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"p", "out", "k", "in"});
  DeploymentPlan plan = same_ecu_plan();
  plan.scheduling = SchedulingPolicy::kTimeTriggered;
  // The event task is not table-dispatched: it preempts the TT frame.
  EXPECT_TRUE(has_rule(orte::validation::validate(c, plan), "V4"));
}

TEST(ValidatorV4, TwoExplicitWritersAreALostUpdateHazard) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable fast = timing_runnable("fast", milliseconds(5));
  fast.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  Runnable slow = timing_runnable("slow", milliseconds(20));
  slow.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {fast, slow}});
  c.add_instance({"p", "Producer"});
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "E"};
  const Diagnostics d = orte::validation::validate(c, plan);
  const auto v4 = d.by_rule("V4");
  ASSERT_EQ(v4.size(), 1u);
  EXPECT_NE(v4.front()->message.find("lost-update"), std::string::npos);
  EXPECT_EQ(v4.front()->subject, "p.out.val");
}

// --- V5: timing sanity ---------------------------------------------------------

TEST(ValidatorV5, ZeroPeriodAndWcetOverrunAndBadTrigger) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable no_period = timing_runnable("no_period", 0);
  Runnable overrun = timing_runnable("overrun", milliseconds(5));
  overrun.wcet_bound = milliseconds(7);
  Runnable on_out;
  on_out.name = "on_out";
  on_out.trigger = RunnableTrigger::data_received("out", "val");
  c.add_type({"T",
              {Port{"out", "IVal", PortDirection::kProvided},
               Port{"in", "IVal", PortDirection::kRequired}},
              {no_period, overrun, on_out}});
  c.add_instance({"t", "T"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v5 = d.by_rule("V5");
  ASSERT_EQ(v5.size(), 3u);
  EXPECT_NE(d.render().find("timing runnable no_period has no period"),
            std::string::npos);
  EXPECT_NE(d.render().find("wcet_bound >= trigger period"),
            std::string::npos);
  EXPECT_NE(d.render().find("data-received trigger on provided port"),
            std::string::npos);
}

TEST(ValidatorV5, BudgetBelowWcetWarns) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  DeploymentPlan plan = same_ecu_plan();
  plan.instances["p"].budget = milliseconds(1);
  // Producer runnable declares a WCET bound above its budget.
  Composition c2;
  c2.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(5));
  produce.wcet_bound = milliseconds(2);
  produce.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  c2.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
               {produce}});
  c2.add_instance({"p", "Producer"});
  DeploymentPlan plan2;
  plan2.instances["p"] = {.ecu = "E", .budget = milliseconds(1)};
  const Diagnostics d = orte::validation::validate(c2, plan2);
  EXPECT_FALSE(d.has_errors());
  ASSERT_TRUE(has_rule(d, "V5"));
  EXPECT_NE(d.render().find("budget is below"), std::string::npos);
}

TEST(ValidatorV5, PlanValuesTheRuntimeCannotTakeAreErrors) {
  // Each plan holds one value the bus or the OS cannot take; strict
  // construction must reject it with the V5 report instead of crashing.
  const Composition c = pipeline(DataAccessKind::kImplicitWrite,
                                 DataAccessKind::kImplicitRead);
  DeploymentPlan cross_ecu;
  cross_ecu.instances["p"] = {.ecu = "a"};
  cross_ecu.instances["k"] = {.ecu = "b"};
  std::vector<DeploymentPlan> plans(9, cross_ecu);
  plans[0].can.bitrate_bps = 0;
  plans[1].bus = BusKind::kFlexRay;
  plans[1].flexray.bitrate_bps = 0;
  plans[2] = same_ecu_plan();  // no signal crosses the bus
  plans[2].bus = BusKind::kFlexRay;
  plans[2].flexray.static_slots = 0;
  plans[3].bus = BusKind::kFlexRay;
  plans[3].flexray.static_slots = 0;
  plans[4].instances["p"].budget = -5;
  plans[5].bus = BusKind::kFlexRay;
  plans[5].flexray.network_idle = -milliseconds(1);
  plans[6].bus = BusKind::kFlexRay;
  plans[6].flexray.minislot_len = -microseconds(100);
  plans[7].bus = BusKind::kFlexRay;  // runs, with a shortened cycle
  plans[7].flexray.minislot_len = -microseconds(1);
  plans[8].bus = BusKind::kFlexRay;  // the dynamic segment divides by it
  plans[8].flexray.minislot_len = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Diagnostics d = orte::validation::validate(c, plans[i]);
    const auto v5 = d.by_rule("V5");
    ASSERT_EQ(v5.size(), 1u) << "plan " << i << "\n" << d.render();
    EXPECT_EQ(v5.front()->severity, Severity::kError) << "plan " << i;
    Kernel kernel;
    Trace trace;
    try {
      System sys(kernel, trace, c, plans[i]);
      ADD_FAILURE() << "plan " << i << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "System: model validation failed\n" + d.render())
          << "plan " << i;
    }
  }
}

TEST(ValidatorV5, UnschedulableTimeTriggeredTableIsAnError) {
  // No non-preemptive table fits a 0.9 ms job every 1 ms beside a 0.5 ms job
  // every 10 ms on one ECU.
  Composition c;
  Runnable fast = timing_runnable("run", milliseconds(1));
  fast.wcet_bound = microseconds(900);
  Runnable slow = timing_runnable("run", milliseconds(10));
  slow.wcet_bound = microseconds(500);
  c.add_type({"Fast", {}, {fast}});
  c.add_type({"Slow", {}, {slow}});
  c.add_instance({"fast", "Fast"});
  c.add_instance({"slow", "Slow"});
  DeploymentPlan plan;
  plan.scheduling = SchedulingPolicy::kTimeTriggered;
  plan.instances["fast"] = {.ecu = "ecu0"};
  plan.instances["slow"] = {.ecu = "ecu0"};
  const Diagnostics d = orte::validation::validate(c, plan);
  const auto v5 = d.by_rule("V5");
  ASSERT_EQ(v5.size(), 1u) << d.render();
  EXPECT_EQ(v5.front()->severity, Severity::kError);
  EXPECT_EQ(v5.front()->subject, "ecu0");
  Kernel kernel;
  Trace trace;
  try {
    System sys(kernel, trace, c, plan);
    ADD_FAILURE() << "the unschedulable plan was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "System: model validation failed\n" + d.render());
  }
}

// --- V6: client-server call cycles ---------------------------------------------

TEST(ValidatorV6, CallCycleIsDetectedAndPrinted) {
  Composition c;
  c.add_interface(calc_interface("ICalc"));
  Runnable r = timing_runnable("r", milliseconds(10));
  r.server_calls.push_back("req.op");
  c.add_type({"Node",
              {Port{"srv", "ICalc", PortDirection::kProvided},
               Port{"req", "ICalc", PortDirection::kRequired}},
              {r}});
  c.set_operation_handler("Node", "srv", "op",
                          [](std::uint64_t v) { return v; });
  c.add_instance({"a", "Node"});
  c.add_instance({"b", "Node"});
  c.add_connector({"a", "srv", "b", "req"});  // b calls a
  c.add_connector({"b", "srv", "a", "req"});  // a calls b
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v6 = d.by_rule("V6");
  ASSERT_FALSE(v6.empty());
  EXPECT_EQ(v6.front()->severity, Severity::kError);
  EXPECT_NE(v6.front()->message.find("call cycle"), std::string::npos);
  EXPECT_NE(v6.front()->message.find(" -> "), std::string::npos);
}

TEST(ValidatorV6, AcyclicCallChainPasses) {
  Composition c;
  c.add_interface(calc_interface("ICalc"));
  Runnable r = timing_runnable("r", milliseconds(10));
  r.server_calls.push_back("req.op");
  c.add_type({"Client", {Port{"req", "ICalc", PortDirection::kRequired}},
              {r}});
  c.add_type({"Server", {Port{"srv", "ICalc", PortDirection::kProvided}}, {}});
  c.set_operation_handler("Server", "srv", "op",
                          [](std::uint64_t v) { return v + 1; });
  c.add_instance({"cl", "Client"});
  c.add_instance({"s", "Server"});
  c.add_connector({"s", "srv", "cl", "req"});
  EXPECT_FALSE(has_rule(orte::validation::validate(c, deploy_all(c)), "V6"));
}

// --- V7: contract compatibility -------------------------------------------------

TEST(ValidatorV7, IncompatibleContractsFlagged) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract producer{.name = "CProd"};
  producer.guarantees.push_back(
      FlowSpec{.flow = "out.val", .range = Interval{0, 100}});
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{0, 50}});
  c.bind_contract("p", producer);
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v7 = d.by_rule("V7");
  ASSERT_FALSE(v7.empty());
  EXPECT_EQ(v7.front()->severity, Severity::kError);
  EXPECT_NE(v7.front()->message.find("CProd"), std::string::npos);

  // Widening the assumption restores compatibility (re-binding replaces).
  Contract tolerant{.name = "CCons"};
  tolerant.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{-1000, 1000}});
  c.bind_contract("k", tolerant);
  EXPECT_FALSE(has_rule(orte::validation::validate(c, deploy_all(c)), "V7"));
}

// --- Strict mode ----------------------------------------------------------------

TEST(ValidatorStrict, SystemConstructionRendersTheFullReport) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  c.add_instance({"ghost", "NoSuchType"});
  DeploymentPlan plan = same_ecu_plan();  // ghost also lacks a deployment
  Kernel kernel;
  Trace trace;
  try {
    System sys(kernel, trace, c, plan);
    FAIL() << "construction should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("model validation failed"), std::string::npos);
    // Both defects appear in one exception, each with its rule ID.
    EXPECT_NE(msg.find("error[V1]"), std::string::npos);
    EXPECT_NE(msg.find("NoSuchType"), std::string::npos);
    EXPECT_NE(msg.find("no deployment for instance ghost"),
              std::string::npos);
    // Strict construction validates the lowering it instantiates; its
    // report is exactly the one validate(model, plan) renders.
    EXPECT_EQ(msg, "System: model validation failed\n" +
                       orte::validation::validate(c, plan).render());
  }
}

TEST(ValidatorStrict, WarningsDoNotBlockGeneration) {
  // The explicit-access pipeline carries a V4 race warning; strict mode
  // still generates the system.
  const Composition c = pipeline(DataAccessKind::kExplicitWrite,
                                 DataAccessKind::kExplicitRead);
  Kernel kernel;
  Trace trace;
  EXPECT_NO_THROW(System(kernel, trace, c, same_ecu_plan()));
}

// --- V8: transitive flow ranges --------------------------------------------------

/// Producer -> relay -> consumer; the relay has no contract, so the pairwise
/// V7 check cannot relate the producer's guarantee to the consumer's
/// assumption — only the transitive V8 propagation can. `p_writes` and
/// `k_reads` drop the producer's write or the consumer's read.
Composition relay_chain(bool p_writes = true, bool k_reads = true) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(5));
  if (p_writes) {
    produce.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  }
  Runnable relay = timing_runnable("relay", milliseconds(5));
  relay.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  relay.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  Runnable consume = timing_runnable("consume", milliseconds(10));
  if (k_reads) {
    consume.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  }
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {produce}});
  c.add_type({"Relay",
              {Port{"in", "IVal", PortDirection::kRequired},
               Port{"out", "IVal", PortDirection::kProvided}},
              {relay}});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"p", "Producer"});
  c.add_instance({"r", "Relay"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"p", "out", "r", "in"});
  c.add_connector({"r", "out", "k", "in"});
  return c;
}

TEST(ValidatorV8, TransitiveEmptyIntersectionIsAnError) {
  Contract producer{.name = "CProd"};
  producer.guarantees.push_back(
      FlowSpec{.flow = "out.val", .range = Interval{0, 100}});
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{200, 300}});
  Composition c = relay_chain();
  c.bind_contract("p", producer);
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  // The uncontracted relay hides this from the pairwise check...
  EXPECT_FALSE(has_rule(d, "V7"));
  // ...but the interval propagation sees [0,100] meet [200,300] = empty.
  const auto v8 = d.by_rule("V8");
  ASSERT_FALSE(v8.empty());
  EXPECT_EQ(v8.front()->severity, Severity::kError);
  EXPECT_EQ(v8.front()->subject, "k.in.val");
  EXPECT_NE(v8.front()->message.find("can never satisfy"), std::string::npos);
}

TEST(ValidatorV8, UnconstrainedTransitiveSourceWarns) {
  // No producer contract at all: the consumer's assumption rests on a
  // source the analysis knows nothing about.
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{200, 300}});
  Composition c = relay_chain();
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v8 = d.by_rule("V8");
  ASSERT_FALSE(v8.empty());
  EXPECT_EQ(v8.front()->severity, Severity::kWarning);
  EXPECT_NE(v8.front()->message.find("unconstrained"), std::string::npos);
}

TEST(ValidatorV8, ContainedTransitiveRangePassesClean) {
  Contract producer{.name = "CProd"};
  producer.guarantees.push_back(
      FlowSpec{.flow = "out.val", .range = Interval{0, 100}});
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{-10, 500}});
  Composition c = relay_chain();
  c.bind_contract("p", producer);
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  EXPECT_FALSE(has_rule(d, "V8")) << d.render();
}

// --- V9: static end-to-end deadlines ---------------------------------------------

/// Timing producer on one ECU feeding a data-received sink on another: the
/// exact chain shape the holistic fixpoint bounds and a LatencyMonitor
/// would watch.
Composition event_chain() {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(5));
  produce.wcet_bound = orte::sim::microseconds(200);
  produce.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  Runnable consume;
  consume.name = "consume";
  consume.trigger = RunnableTrigger::data_received("in", "val");
  consume.wcet_bound = orte::sim::microseconds(100);
  consume.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {produce}});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"p", "Producer"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"p", "out", "k", "in"});
  return c;
}

DeploymentPlan cross_ecu_plan() {
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "E0"};
  plan.instances["k"] = {.ecu = "E1"};
  return plan;
}

TEST(ValidatorV9, DeadlineBelowStaticBoundIsAnError) {
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(FlowSpec{
      .flow = "in.val", .timing = {.latency = orte::sim::microseconds(1)}});
  Composition c = event_chain();
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, cross_ecu_plan());
  const auto v9 = d.by_rule("V9");
  ASSERT_FALSE(v9.empty());
  EXPECT_EQ(v9.front()->severity, Severity::kError);
  EXPECT_EQ(v9.front()->subject, "k.in.val");
}

TEST(ValidatorV9, GenerousDeadlineReportsSlackNotError) {
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(FlowSpec{
      .flow = "in.val", .timing = {.latency = orte::sim::seconds(1)}});
  Composition c = event_chain();
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, cross_ecu_plan());
  const auto v9 = d.by_rule("V9");
  ASSERT_FALSE(v9.empty());
  EXPECT_EQ(v9.front()->severity, Severity::kInfo);
  EXPECT_NE(v9.front()->message.find("slack"), std::string::npos);
  EXPECT_FALSE(d.has_errors()) << d.render();
}

// --- V10: monitor coverage -------------------------------------------------------

TEST(ValidatorV10, UnresolvableLatencyAssumptionWarns) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(FlowSpec{
      .flow = "nosuch.val", .timing = {.latency = milliseconds(1)}});
  c.bind_contract("k", consumer);
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v10 = d.by_rule("V10");
  ASSERT_FALSE(v10.empty());
  EXPECT_EQ(v10.front()->severity, Severity::kWarning);
  EXPECT_NE(v10.front()->message.find("no traced flow"), std::string::npos);
}

TEST(ValidatorV10, DisabledRuntimeVerificationWithObligationsWarns) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(FlowSpec{
      .flow = "in.val", .timing = {.latency = orte::sim::seconds(1)}});
  c.bind_contract("k", consumer);
  DeploymentPlan plan = same_ecu_plan();
  plan.runtime_verification = false;
  const Diagnostics d = orte::validation::validate(c, plan);
  bool global = false;
  for (const auto* diag : d.by_rule("V10")) {
    if (diag->subject == "deployment") global = true;
  }
  EXPECT_TRUE(global) << d.render();
}

TEST(ValidatorV10, AliveSupervisionWithRvDisabledWarns) {
  // The watchdogs are still built, but their expiries reach no registry.
  DeploymentPlan plan = same_ecu_plan();
  plan.runtime_verification = false;
  plan.alive_supervision = true;
  const Diagnostics d = orte::validation::validate(
      pipeline(DataAccessKind::kImplicitWrite, DataAccessKind::kImplicitRead),
      plan);
  const auto v10 = d.by_rule("V10");
  ASSERT_EQ(v10.size(), 1u) << d.render();
  EXPECT_EQ(v10.front()->severity, Severity::kWarning);
  EXPECT_EQ(v10.front()->subject, "deployment");
  EXPECT_NE(v10.front()->message.find("alive supervision"), std::string::npos);
}

TEST(ValidatorV10, RecoveryModeWithRvDisabledWarns) {
  // Only the monitor registry requests the recovery mode.
  DeploymentPlan plan = same_ecu_plan();
  plan.runtime_verification = false;
  plan.recovery_mode = "RUN";
  const Diagnostics d = orte::validation::validate(
      pipeline(DataAccessKind::kImplicitWrite, DataAccessKind::kImplicitRead),
      plan);
  const auto v10 = d.by_rule("V10");
  ASSERT_EQ(v10.size(), 1u) << d.render();
  EXPECT_EQ(v10.front()->severity, Severity::kWarning);
  EXPECT_EQ(v10.front()->subject, "deployment");
  EXPECT_NE(v10.front()->message.find("recovery mode \"RUN\""),
            std::string::npos);
}

TEST(ValidatorV10, RvOnlyPlanFieldsAreSilentWithRvEnabled) {
  DeploymentPlan plan = same_ecu_plan();
  plan.alive_supervision = true;
  plan.recovery_mode = "RUN";
  const Diagnostics d = orte::validation::validate(
      pipeline(DataAccessKind::kImplicitWrite, DataAccessKind::kImplicitRead),
      plan);
  EXPECT_FALSE(has_rule(d, "V10")) << d.render();
}

TEST(ValidatorV10, ResolvableAssumptionIsCovered) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(FlowSpec{
      .flow = "in.val", .timing = {.latency = orte::sim::seconds(1)}});
  c.bind_contract("k", consumer);
  // runtime_verification defaults to on; the feeding connector resolves.
  const Diagnostics d = orte::validation::validate(c, same_ecu_plan());
  EXPECT_FALSE(has_rule(d, "V10")) << d.render();
}

// --- V11: resource budgets -------------------------------------------------------

TEST(ValidatorV11, OversubscribedEcuIsAnError) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract cp{.name = "CProd"};
  cp.vertical.cpu_utilization = 0.6;
  Contract ck{.name = "CCons"};
  ck.vertical.cpu_utilization = 0.6;
  c.bind_contract("p", cp);
  c.bind_contract("k", ck);
  const Diagnostics d = orte::validation::validate(c, same_ecu_plan());
  const auto v11 = d.by_rule("V11");
  ASSERT_FALSE(v11.empty());
  EXPECT_EQ(v11.front()->severity, Severity::kError);
  EXPECT_EQ(v11.front()->subject, "E");
  EXPECT_NE(v11.front()->message.find("oversubscribe"), std::string::npos);
}

TEST(ValidatorV11, GeneratedLoadAboveDeclaredBudgetWarns) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(10));
  produce.wcet_bound = milliseconds(5);  // measured utilization 0.5
  produce.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  c.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
              {produce}});
  c.add_instance({"p", "Producer"});
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "E"};
  Contract cp{.name = "CProd"};
  cp.vertical.cpu_utilization = 0.1;  // declares far less than it generates
  c.bind_contract("p", cp);
  const Diagnostics d = orte::validation::validate(c, plan);
  const auto v11 = d.by_rule("V11");
  ASSERT_FALSE(v11.empty());
  EXPECT_EQ(v11.front()->severity, Severity::kWarning);
  EXPECT_EQ(v11.front()->subject, "p");
}

TEST(ValidatorV11, BudgetsWithinDeclarationPassClean) {
  Composition c = pipeline(DataAccessKind::kImplicitWrite,
                           DataAccessKind::kImplicitRead);
  Contract cp{.name = "CProd"};
  cp.vertical.cpu_utilization = 0.3;
  Contract ck{.name = "CCons"};
  ck.vertical.cpu_utilization = 0.3;
  c.bind_contract("p", cp);
  c.bind_contract("k", ck);
  const Diagnostics d = orte::validation::validate(c, same_ecu_plan());
  EXPECT_FALSE(has_rule(d, "V11")) << d.render();
}

// --- V12: dead / unreachable flows -----------------------------------------------

TEST(ValidatorV12, RelayWithoutAutonomousSourceIsDeadFlow) {
  // Relay reads an unconnected input and feeds the consumer: the immediate
  // link p.out -> k.in is V3-clean, but nothing upstream ever produces a
  // value, so the consumer only ever sees relayed initial values.
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable relay = timing_runnable("relay", milliseconds(5));
  relay.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  relay.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  Runnable consume = timing_runnable("consume", milliseconds(10));
  consume.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  c.add_type({"Relay",
              {Port{"in", "IVal", PortDirection::kRequired},
               Port{"out", "IVal", PortDirection::kProvided}},
              {relay}});
  c.add_type({"Consumer", {Port{"in", "IVal", PortDirection::kRequired}},
              {consume}});
  c.add_instance({"r", "Relay"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"r", "out", "k", "in"});
  // Any bound contract enables the whole-program pass.
  c.bind_contract("k", Contract{.name = "C0"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v12 = d.by_rule("V12");
  ASSERT_FALSE(v12.empty());
  EXPECT_EQ(v12.front()->severity, Severity::kWarning);
  EXPECT_EQ(v12.front()->subject, "k.in.val");
  EXPECT_NE(v12.front()->message.find("never change"), std::string::npos);
}

TEST(ValidatorV12, UnconsumedRelayedWriteIsReportedAsInfo) {
  // Producer -> relay, but the relay's own output hangs: the producer's
  // write is delivered and read, yet no terminal consumer exists.
  Composition c2;
  c2.add_interface(value_interface("IVal"));
  Runnable produce = timing_runnable("produce", milliseconds(5));
  produce.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  Runnable relay = timing_runnable("relay", milliseconds(5));
  relay.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  relay.accesses.push_back({"out", "val", DataAccessKind::kImplicitWrite});
  c2.add_type({"Producer", {Port{"out", "IVal", PortDirection::kProvided}},
               {produce}});
  c2.add_type({"Relay",
               {Port{"in", "IVal", PortDirection::kRequired},
                Port{"out", "IVal", PortDirection::kProvided}},
               {relay}});
  c2.add_instance({"p", "Producer"});
  c2.add_instance({"r", "Relay"});
  c2.add_connector({"p", "out", "r", "in"});
  c2.bind_contract("r", Contract{.name = "C0"});
  const Diagnostics d = orte::validation::validate(c2, deploy_all(c2));
  const auto v12 = d.by_rule("V12");
  ASSERT_FALSE(v12.empty());
  EXPECT_EQ(v12.front()->severity, Severity::kInfo);
  EXPECT_EQ(v12.front()->subject, "p.out.val");
}

TEST(ValidatorV12, SilentOnTheReadV3FlagsAsFedByAnUnwrittenElement) {
  // p -> r -> k, but nothing writes p.out: V3 reports p.out.val as never
  // written, so V12 leaves r.in.val alone and warns only on k.in.val, which
  // the written r.out.val feeds.
  Composition c = relay_chain(/*p_writes=*/false);
  c.bind_contract("k", Contract{.name = "C0"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v12 = d.by_rule("V12");
  ASSERT_EQ(v12.size(), 1u) << d.render();
  EXPECT_EQ(v12.front()->severity, Severity::kWarning);
  EXPECT_EQ(v12.front()->subject, "k.in.val");
  const auto v3 = d.by_rule("V3");
  EXPECT_TRUE(std::any_of(v3.begin(), v3.end(), [](const auto* diag) {
    return diag->subject == "p.out.val";
  })) << d.render();
}

TEST(ValidatorV12, SilentOnTheWriteV3FlagsAsDeliveredButUnread) {
  // p -> r -> k, but k never reads in: V3 reports k.in.val as never read,
  // so V12 leaves r.out.val alone and reports only p.out.val, whose
  // receiver r reads.
  Composition c = relay_chain(/*p_writes=*/true, /*k_reads=*/false);
  c.bind_contract("r", Contract{.name = "C0"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  const auto v12 = d.by_rule("V12");
  ASSERT_EQ(v12.size(), 1u) << d.render();
  EXPECT_EQ(v12.front()->severity, Severity::kInfo);
  EXPECT_EQ(v12.front()->subject, "p.out.val");
  const auto v3 = d.by_rule("V3");
  EXPECT_TRUE(std::any_of(v3.begin(), v3.end(), [](const auto* diag) {
    return diag->subject == "k.in.val";
  })) << d.render();
}

TEST(ValidatorV12, AutonomousSourceMakesChainLive) {
  Composition c = relay_chain();
  c.bind_contract("k", Contract{.name = "C0"});
  const Diagnostics d = orte::validation::validate(c, deploy_all(c));
  EXPECT_FALSE(has_rule(d, "V12")) << d.render();
}

// --- V13-V15: fault detectability & fail-silence --------------------------------
//
// The brake-by-wire campaign workload is the canonical fixture here on
// purpose: the same bundle feeds the E9b campaign, so these static verdicts
// are cross-checked against measured outcomes in test_fi.

TEST(ValidatorV13, UnsupervisedProducerCrashIsUndetectable) {
  const auto bundle = orte::fi::workloads::brake_by_wire();
  const Diagnostics d =
      orte::validation::validate(bundle.model, bundle.plan);
  const auto v13 = d.by_rule("V13");
  ASSERT_FALSE(v13.empty()) << d.render();
  EXPECT_EQ(v13.front()->severity, Severity::kWarning);
  EXPECT_EQ(v13.front()->subject, "task_crash:pedal");
  EXPECT_NE(v13.front()->message.find("no compiled runtime monitor"),
            std::string::npos);
  // The hint names the one-flag fix.
  EXPECT_NE(v13.front()->hint.find("alive_supervision"), std::string::npos);
}

TEST(ValidatorV13, AliveSupervisionMakesTheCrashDetectable) {
  const auto bundle = orte::fi::workloads::brake_by_wire(true);
  const Diagnostics d =
      orte::validation::validate(bundle.model, bundle.plan);
  EXPECT_FALSE(has_rule(d, "V13")) << d.render();
  EXPECT_FALSE(has_rule(d, "V15")) << d.render();
}

TEST(ValidatorV14, BabblerOnCanHasNoContainmentDomain) {
  auto bundle = orte::fi::workloads::brake_by_wire();
  // On an event-triggered bus the rogue node delays every victim frame, so
  // latency monitors fire — but each one blames a victim, never the babbler.
  bundle.plan.bus = BusKind::kCan;
  const Diagnostics d =
      orte::validation::validate(bundle.model, bundle.plan);
  const auto v14 = d.by_rule("V14");
  ASSERT_FALSE(v14.empty()) << d.render();
  EXPECT_EQ(v14.front()->severity, Severity::kWarning);
  EXPECT_EQ(v14.front()->subject, "babbling_idiot");
  EXPECT_NE(v14.front()->message.find("containment domain"),
            std::string::npos);
}

TEST(ValidatorV14, TdmaSlottingContainsTheBabblerStructurally) {
  const auto bundle = orte::fi::workloads::brake_by_wire();
  ASSERT_EQ(bundle.plan.bus, BusKind::kFlexRay);
  // Structural containment: the babbler perturbs nothing, so it is inert —
  // predicted missed, but no gap to warn about.
  const Diagnostics d =
      orte::validation::validate(bundle.model, bundle.plan);
  EXPECT_FALSE(has_rule(d, "V14")) << d.render();
}

TEST(ValidatorV15, PeriodicGuaranteeWithoutWatchdogWarnsPerSenderKey) {
  const auto bundle = orte::fi::workloads::brake_by_wire();
  const Diagnostics d =
      orte::validation::validate(bundle.model, bundle.plan);
  const auto v15 = d.by_rule("V15");
  ASSERT_EQ(v15.size(), 1u) << d.render();  // One resolved periodic sender.
  EXPECT_EQ(v15.front()->severity, Severity::kWarning);
  EXPECT_EQ(v15.front()->subject, "pedal.out.pos");
  EXPECT_NE(v15.front()->message.find("implies a heartbeat"),
            std::string::npos);
  EXPECT_NE(v15.front()->hint.find("alive_supervision"), std::string::npos);
}

TEST(ValidatorV15, SilentWithRvDisabled) {
  auto off = orte::fi::workloads::brake_by_wire();
  off.plan.runtime_verification = false;
  const Diagnostics rv_off = orte::validation::validate(off.model, off.plan);
  EXPECT_FALSE(has_rule(rv_off, "V13")) << rv_off.render();
  EXPECT_FALSE(has_rule(rv_off, "V15")) << rv_off.render();
}

TEST(Detectability, StuckAtIsObservedByBothRangePlanesAndContained) {
  const auto bundle = orte::fi::workloads::brake_by_wire();
  const std::vector<orte::fi::Fault> faults = {
      {.kind = orte::fi::FaultKind::kStuckAt,
       .target = "pedal.out.pos",
       .value = 4000}};
  const auto analysis = orte::validation::analyze_detectability(
      bundle.model, bundle.plan, faults);
  ASSERT_EQ(analysis.verdicts.size(), 1u);
  const auto& v = analysis.verdicts.front();
  EXPECT_TRUE(v.perturbs);
  EXPECT_TRUE(v.detectable);
  EXPECT_TRUE(v.contained);
  EXPECT_FALSE(v.containment_gap);
  bool saw_write = false;
  bool saw_deliver = false;
  for (const auto& o : v.observers) {
    saw_write |= o.kind == orte::validation::MonitorPlane::Kind::kRangeWrite;
    saw_deliver |=
        o.kind == orte::validation::MonitorPlane::Kind::kRangeDeliver;
    // Both planes blame the producer — inside the fault's domain.
    EXPECT_EQ(o.blame, "pedal");
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_deliver);
}

TEST(Detectability, StuckAtTwoHopsUpstreamIsAContainmentGap) {
  // The stuck value crosses relay r to k's range assumption. That plane
  // blames k's feeding producer r, outside the fault's domain {p}.
  Contract consumer{.name = "CCons"};
  consumer.assumptions.push_back(
      FlowSpec{.flow = "in.val", .range = Interval{0, 100}});
  Composition c = relay_chain();
  c.bind_contract("k", consumer);
  DeploymentPlan plan = same_ecu_plan();
  plan.instances["r"] = {.ecu = "E"};
  const auto analysis = orte::validation::analyze_detectability(
      c, plan,
      {{.kind = orte::fi::FaultKind::kStuckAt,
        .target = "p.out.val",
        .value = 4000}});
  ASSERT_EQ(analysis.verdicts.size(), 1u);
  const auto& v = analysis.verdicts.front();
  EXPECT_TRUE(v.perturbs);
  EXPECT_TRUE(v.detectable);
  EXPECT_TRUE(v.containment_gap);
  EXPECT_FALSE(v.contained);
  ASSERT_EQ(v.observers.size(), 1u);
  EXPECT_EQ(v.observers.front().kind,
            orte::validation::MonitorPlane::Kind::kRangeDeliver);
  EXPECT_EQ(v.observers.front().observable, "deliver-value k.in.val");
  EXPECT_EQ(v.observers.front().blame, "r");
}

TEST(Detectability, FrameDelayOnFlexRayIsRejected) {
  // The static slots pin frame timing, so FlexRay ignores the delay: the
  // analysis rejects the fault as the injector does, whatever its target.
  const auto bundle = orte::fi::workloads::brake_by_wire();
  ASSERT_EQ(bundle.plan.bus, BusKind::kFlexRay);
  for (const char* target : {"", "pdu"}) {
    const orte::fi::Fault fault{.kind = orte::fi::FaultKind::kFrameDelay,
                                .target = target,
                                .delay = milliseconds(4)};
    try {
      (void)orte::validation::analyze_detectability(bundle.model, bundle.plan,
                                                    {fault});
      ADD_FAILURE() << fault.label() << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "fi: fault " + fault.label() +
                    ": a FlexRay bus ignores frame delays (its static slots "
                    "pin frame timing)");
    }
  }
}

// --- SARIF export ----------------------------------------------------------------

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Sarif, OneResultPerDiagnosticWithMappedLevels) {
  Diagnostics d;
  d.add("V1", Severity::kError, "e.f", "dangling");
  d.add("V4", Severity::kWarning, "c.d", "race", "buffer it");
  d.add("V3", Severity::kInfo, "a.b", "dead element");
  const std::string sarif = orte::validation::to_sarif(d);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"orte-validator\""), std::string::npos);
  EXPECT_EQ(count_of(sarif, "\"ruleId\""), 3u);
  EXPECT_EQ(count_of(sarif, "\"level\": \"error\""), 1u);
  EXPECT_EQ(count_of(sarif, "\"level\": \"warning\""), 1u);
  EXPECT_EQ(count_of(sarif, "\"level\": \"note\""), 1u);
  // Subjects surface as logical locations; hints ride in properties.
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"c.d\""), std::string::npos);
  EXPECT_NE(sarif.find("\"hint\": \"buffer it\""), std::string::npos);
  // One reportingDescriptor per distinct rule.
  EXPECT_EQ(count_of(sarif, "\"shortDescription\""), 3u);
}

TEST(Sarif, EscapesQuotesAndControlCharacters) {
  Diagnostics d;
  d.add("V2", Severity::kError, "x", "mismatch \"quoted\" and\nnewline");
  const std::string sarif = orte::validation::to_sarif(d);
  EXPECT_NE(sarif.find("mismatch \\\"quoted\\\" and\\nnewline"),
            std::string::npos);
}

TEST(Sarif, EmptyReportIsStillAValidDocument) {
  const std::string sarif = orte::validation::to_sarif(Diagnostics{});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(count_of(sarif, "\"ruleId\""), 0u);
}

TEST(Sarif, DetectabilityRulesCarryDescriptionsLocationsAndHints) {
  // The real pass, end to end: lint the unsupervised campaign workload and
  // check V13/V15 survive export with their rule metadata, logical
  // locations and fix hints intact (the CI model_lint.sarif contract).
  auto bundle = orte::fi::workloads::brake_by_wire();
  bundle.plan.bus = BusKind::kCan;  // Adds the V14 containment gap.
  const std::string sarif = orte::validation::to_sarif(
      orte::validation::validate(bundle.model, bundle.plan));
  EXPECT_NE(sarif.find("\"id\": \"V13\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"V14\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"V15\""), std::string::npos);
  EXPECT_NE(
      sarif.find("Fault planes invisible to every compiled runtime monitor"),
      std::string::npos);
  EXPECT_NE(
      sarif.find("Detectable faults no observing monitor blames in-domain"),
      std::string::npos);
  EXPECT_NE(sarif.find("Periodic guarantees without watchdog alive"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"task_crash:pedal\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"pedal.out.pos\""),
            std::string::npos);
  EXPECT_NE(sarif.find("alive_supervision = true"), std::string::npos);
}

}  // namespace
