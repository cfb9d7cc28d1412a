// Integration tests spanning RTE + OS + buses + BSW + analysis.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/e2e.hpp"
#include "analysis/flexray_analysis.hpp"
#include "analysis/rta.hpp"
#include "analysis/tt_schedule.hpp"
#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "bsw/watchdog.hpp"
#include "noc/noc.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte;
using sim::Kernel;
using sim::Time;
using sim::Trace;
using sim::microseconds;
using sim::milliseconds;
using vfb::BusKind;
using vfb::Composition;
using vfb::DataAccessKind;
using vfb::DataElement;
using vfb::DeploymentPlan;
using vfb::Port;
using vfb::PortDirection;
using vfb::PortInterface;
using vfb::Runnable;
using vfb::RunnableContext;
using vfb::RunnableTrigger;
using vfb::System;

/// Sensor -> controller -> actuator pipeline across three ECUs; actuator
/// records the end-to-end latency stamped by the sensor.
struct ControlPath {
  Composition comp;
  sim::Stats e2e_ms;

  ControlPath() {
    PortInterface ival;
    ival.name = "IVal";
    ival.elements.push_back(DataElement{"val", 64, 0, false});
    comp.add_interface(ival);

    Runnable sense;
    sense.name = "sense";
    sense.trigger = RunnableTrigger::timing(milliseconds(10));
    sense.execution_time = [] { return microseconds(200); };
    sense.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
    sense.behavior = [](RunnableContext& ctx) {
      ctx.write("out", "val", static_cast<std::uint64_t>(ctx.now()));
    };
    comp.add_type(
        {"Sensor", {Port{"out", "IVal", PortDirection::kProvided}}, {sense}});

    Runnable control;
    control.name = "control";
    control.trigger = RunnableTrigger::data_received("in", "val");
    control.execution_time = [] { return microseconds(500); };
    control.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
    control.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
    control.behavior = [](RunnableContext& ctx) {
      ctx.write("out", "val", ctx.read("in", "val"));  // forward timestamp
    };
    comp.add_type({"Controller",
                   {Port{"in", "IVal", PortDirection::kRequired},
                    Port{"out", "IVal", PortDirection::kProvided}},
                   {control}});

    Runnable actuate;
    actuate.name = "actuate";
    actuate.trigger = RunnableTrigger::data_received("in", "val");
    actuate.execution_time = [] { return microseconds(200); };
    actuate.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
    actuate.behavior = [this](RunnableContext& ctx) {
      const auto stamped = static_cast<Time>(ctx.read("in", "val"));
      e2e_ms.add(sim::to_ms(ctx.now() - stamped));
    };
    comp.add_type({"Actuator",
                   {Port{"in", "IVal", PortDirection::kRequired}}, {actuate}});

    comp.add_instance({"sensor", "Sensor"});
    comp.add_instance({"ctrl", "Controller"});
    comp.add_instance({"act", "Actuator"});
    comp.add_connector({"sensor", "out", "ctrl", "in"});
    comp.add_connector({"ctrl", "out", "act", "in"});
  }

  DeploymentPlan plan(BusKind bus) const {
    DeploymentPlan p;
    p.instances["sensor"] = {.ecu = "ecu_sense"};
    p.instances["ctrl"] = {.ecu = "ecu_ctrl"};
    p.instances["act"] = {.ecu = "ecu_act"};
    p.bus = bus;
    return p;
  }
};

TEST(Integration, DistributedControlPathOverCan) {
  Kernel kernel;
  Trace trace;
  ControlPath path;
  System sys(kernel, trace, path.comp, path.plan(BusKind::kCan));
  EXPECT_EQ(sys.signal_count(), 2u);
  sys.run_for(milliseconds(1000));
  ASSERT_GE(path.e2e_ms.count(), 90u);
  // Two 8-byte CAN frames (0.27ms each at 500k) + 0.9ms compute, idle bus:
  // end-to-end stays well under 3ms and is always positive.
  EXPECT_GT(path.e2e_ms.min(), 0.0);
  EXPECT_LT(path.e2e_ms.max(), 3.0);
}

TEST(Integration, CanLatencyWithinAnalyticalBound) {
  Kernel kernel;
  Trace trace;
  ControlPath path;
  System sys(kernel, trace, path.comp, path.plan(BusKind::kCan));
  sys.run_for(milliseconds(1000));
  // Analytical composition: sensor task + frame + controller + frame + act.
  const auto bound = analysis::e2e_latency({
      {.name = "sense", .response = microseconds(200)},
      {.name = "can1", .response = microseconds(276)},
      {.name = "ctrl", .response = microseconds(500)},
      {.name = "can2", .response = microseconds(276)},
      {.name = "act", .response = microseconds(200)},
  });
  EXPECT_LE(path.e2e_ms.max(), sim::to_ms(bound.worst) + 1e-9);
}

TEST(Integration, DistributedControlPathOverFlexRay) {
  Kernel kernel;
  Trace trace;
  ControlPath path;
  auto plan = path.plan(BusKind::kFlexRay);
  System sys(kernel, trace, path.comp, plan);
  sys.run_for(milliseconds(1000));
  ASSERT_GE(path.e2e_ms.count(), 50u);
  // Each hop waits for its static slot: bounded by two cycles + compute.
  const auto cycle = sys.flexray_bus()->cycle_len();
  const double worst_ms =
      sim::to_ms(2 * (cycle + sys.flexray_bus()->static_slot_len())) + 0.9 + 0.1;
  EXPECT_LT(path.e2e_ms.max(), worst_ms);
  EXPECT_GT(path.e2e_ms.min(), 0.0);
}

TEST(Integration, BudgetKillTripsAliveSupervision) {
  // A task whose jobs get killed by budget enforcement stops reaching its
  // watchdog checkpoint; alive supervision catches the resulting silence.
  Kernel kernel;
  Trace trace;
  os::Ecu ecu(kernel, trace, "host");
  bsw::WatchdogManager wdg(kernel, trace, milliseconds(50));
  wdg.supervise({.entity = "job_done", .min_indications = 1});
  auto& t = ecu.add_task({.name = "t", .priority = 1,
                          .period = milliseconds(10),
                          .budget = milliseconds(2)});
  t.set_body(milliseconds(5), [&] { wdg.checkpoint("job_done"); });
  ecu.start();
  wdg.start();
  kernel.run_until(milliseconds(200));
  EXPECT_EQ(t.jobs_completed(), 0u);
  EXPECT_GT(wdg.violations(), 0u);
}

TEST(Integration, SynthesizedTableRunsContentionFree) {
  // Synthesize a TT table with the analysis library, install it on an ECU,
  // and verify zero response-time variation (the §1 timing-isolation ideal).
  Kernel kernel;
  Trace trace;
  const auto sched = analysis::synthesize_schedule({
      {.task = "a", .period = milliseconds(5), .wcet = milliseconds(1)},
      {.task = "b", .period = milliseconds(10), .wcet = milliseconds(2)},
      {.task = "c", .period = milliseconds(20), .wcet = milliseconds(3)},
  });
  ASSERT_TRUE(sched.has_value());
  os::Ecu ecu(kernel, trace, "tt");
  ecu.add_task({.name = "a", .priority = 1}).set_body(milliseconds(1));
  ecu.add_task({.name = "b", .priority = 1}).set_body(milliseconds(2));
  ecu.add_task({.name = "c", .priority = 1}).set_body(milliseconds(3));
  ecu.set_schedule_table(sched->entries, sched->cycle);
  ecu.start();
  kernel.run_until(milliseconds(500));
  for (const auto& task : ecu.tasks()) {
    EXPECT_EQ(task->deadline_misses(), 0u);
    // Dispatch at reserved windows: response == wcet, always.
    EXPECT_DOUBLE_EQ(task->response_times().min(),
                     task->response_times().max());
  }
}

TEST(Integration, NocConnectsTwoEcus) {
  // Two IP cores, each an Ecu, exchanging messages through the TDMA NoC —
  // the §4 integrated-architecture execution environment.
  Kernel kernel;
  Trace trace;
  noc::Noc chip(kernel, trace, {.arbitration = noc::Arbitration::kTdma});
  auto& ni0 = chip.attach("core0");
  auto& ni1 = chip.attach("core1");
  os::Ecu core0(kernel, trace, "core0");
  os::Ecu core1(kernel, trace, "core1");

  auto& consumer = core1.add_task({.name = "consumer", .priority = 1});
  sim::Stats latencies;
  ni1.on_receive([&](const noc::NocMessage& m) {
    latencies.add(sim::to_us(m.delivered_at - m.enqueued_at));
    core1.activate(consumer);
  });
  consumer.set_body(microseconds(50));

  auto& producer = core0.add_task({.name = "producer", .priority = 1,
                                   .period = milliseconds(1)});
  producer.set_body(microseconds(100), [&] {
    noc::NocMessage m;
    m.destination = 1;
    m.name = "state";
    m.bytes = 64;
    ni0.send(m);
  });
  core0.start();
  core1.start();
  chip.start();
  kernel.run_until(milliseconds(100));
  EXPECT_GE(consumer.jobs_completed(), 99u);
  // NI-to-NI latency bounded by one NoC period + serialization.
  EXPECT_LE(latencies.max(),
            sim::to_us(chip.period()) + sim::to_us(chip.tx_time(64)));
}

TEST(Integration, RtaBoundHoldsOnSimulatedEcu) {
  // The response-time analysis must upper-bound what the simulated ECU
  // actually does on the same task set.
  Kernel kernel;
  Trace trace;
  os::Ecu ecu(kernel, trace, "e");
  std::vector<analysis::AnalysisTask> model{
      {.name = "t1", .wcet = milliseconds(1), .period = milliseconds(4),
       .priority = 3},
      {.name = "t2", .wcet = milliseconds(2), .period = milliseconds(8),
       .priority = 2},
      {.name = "t3", .wcet = milliseconds(3), .period = milliseconds(16),
       .priority = 1},
  };
  for (const auto& m : model) {
    ecu.add_task({.name = m.name, .priority = m.priority, .period = m.period})
        .set_body(m.wcet);
  }
  ecu.start();
  kernel.run_until(milliseconds(1600));
  const auto result = analysis::analyze(model);
  ASSERT_TRUE(result.schedulable);
  for (const auto& m : model) {
    const double bound_ms = sim::to_ms(result.response.at(m.name));
    EXPECT_LE(ecu.find_task(m.name)->response_times().max(), bound_ms + 1e-9);
    // The synchronous release at t=0 makes the bound tight here.
    EXPECT_DOUBLE_EQ(ecu.find_task(m.name)->response_times().max(), bound_ms);
  }
}

}  // namespace
