// Unit tests: VFB component model, RTE semantics, system generation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "contracts/contract.hpp"
#include "fi/workloads.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"
#include "validation/validator.hpp"
#include "vfb/lowering.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte::vfb;
using orte::sim::Kernel;
using orte::sim::Time;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;
using orte::test::records_of;

PortInterface value_interface(std::string name, bool queued = false) {
  PortInterface i;
  i.name = std::move(name);
  i.kind = PortInterface::Kind::kSenderReceiver;
  i.elements.push_back(DataElement{"val", 64, 0, queued});
  return i;
}

// --- Composition validation ----------------------------------------------------

/// Each instance on its own ECU: a plan for tests that judge the model
/// rather than its deployment.
DeploymentPlan deploy_all(const Composition& c) {
  DeploymentPlan plan;
  for (const auto& inst : c.instances()) {
    plan.instances[inst.name] = {.ecu = inst.name};
  }
  return plan;
}

TEST(Composition, ValidModelPasses) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  ComponentType producer{"Producer",
                         {Port{"out", "IVal", PortDirection::kProvided}},
                         {}};
  ComponentType consumer{"Consumer",
                         {Port{"in", "IVal", PortDirection::kRequired}},
                         {}};
  c.add_type(producer);
  c.add_type(consumer);
  c.add_instance({"p", "Producer"});
  c.add_instance({"k", "Consumer"});
  c.add_connector({"p", "out", "k", "in"});
  EXPECT_FALSE(orte::validation::validate(c, deploy_all(c)).has_errors());
}

TEST(Composition, ConnectorDirectionMismatchFails) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  c.add_type({"A", {Port{"out", "IVal", PortDirection::kProvided}}, {}});
  c.add_type({"B", {Port{"in", "IVal", PortDirection::kRequired}}, {}});
  c.add_instance({"a", "A"});
  c.add_instance({"b", "B"});
  c.add_connector({"b", "in", "a", "out"});  // reversed
  EXPECT_TRUE(orte::validation::validate(c, deploy_all(c)).has_errors());
}

TEST(Composition, InterfaceMismatchFails) {
  Composition c;
  c.add_interface(value_interface("I1"));
  c.add_interface(value_interface("I2"));
  c.add_type({"A", {Port{"out", "I1", PortDirection::kProvided}}, {}});
  c.add_type({"B", {Port{"in", "I2", PortDirection::kRequired}}, {}});
  c.add_instance({"a", "A"});
  c.add_instance({"b", "B"});
  c.add_connector({"a", "out", "b", "in"});
  EXPECT_TRUE(orte::validation::validate(c, deploy_all(c)).has_errors());
}

TEST(Composition, MultipleFeedsToRequiredPortFail) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  c.add_type({"A", {Port{"out", "IVal", PortDirection::kProvided}}, {}});
  c.add_type({"B", {Port{"in", "IVal", PortDirection::kRequired}}, {}});
  c.add_instance({"a1", "A"});
  c.add_instance({"a2", "A"});
  c.add_instance({"b", "B"});
  c.add_connector({"a1", "out", "b", "in"});
  c.add_connector({"a2", "out", "b", "in"});
  EXPECT_TRUE(orte::validation::validate(c, deploy_all(c)).has_errors());
}

TEST(Composition, LookupsAnswerFromTheNameIndexes) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  c.add_type({"A", {Port{"out", "IVal", PortDirection::kProvided}}, {}});
  c.add_type({"B", {Port{"in", "IVal", PortDirection::kRequired}}, {}});
  c.add_instance({"a1", "A"});
  c.add_instance({"a2", "A"});
  c.add_instance({"b", "B"});
  c.add_connector({"a1", "out", "b", "in"});
  c.add_connector({"a2", "out", "b", "in"});
  // Two feeds into one required port (V2's finding): the first answers.
  const Connector* feed = c.connection_to("b", "in");
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(feed->from_instance, "a1");
  EXPECT_EQ(c.connection_to("a1", "out"), nullptr);
  EXPECT_EQ(c.find_instance("ghost"), nullptr);
  // A copy answers from its own vectors.
  const Composition copy = c;
  EXPECT_EQ(copy.find_instance("b"), &copy.instances()[2]);
  EXPECT_EQ(copy.connection_to("b", "in"), &copy.connectors()[0]);
}

TEST(Composition, WriteAccessOnRequiredPortFails) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  Runnable r;
  r.name = "run";
  r.trigger = RunnableTrigger::timing(milliseconds(10));
  r.accesses.push_back({"in", "val", DataAccessKind::kExplicitWrite});
  c.add_type({"B", {Port{"in", "IVal", PortDirection::kRequired}}, {r}});
  c.add_instance({"b", "B"});
  EXPECT_TRUE(orte::validation::validate(c, deploy_all(c)).has_errors());
}

TEST(Composition, DuplicateNamesFail) {
  Composition c;
  c.add_interface(value_interface("IVal"));
  EXPECT_THROW(c.add_interface(value_interface("IVal")),
               std::invalid_argument);
  c.add_type({"A", {}, {}});
  EXPECT_THROW(c.add_type({"A", {}, {}}), std::invalid_argument);
  c.add_instance({"a", "A"});
  EXPECT_THROW(c.add_instance({"a", "A"}), std::invalid_argument);
}

// --- Helpers to build a two-component system -----------------------------------

struct PipelineModel {
  Composition comp;
  // Producer writes its activation count; consumer records what it reads.
  std::vector<std::uint64_t>* consumed;

  explicit PipelineModel(std::vector<std::uint64_t>* sink,
                         DataAccessKind write_kind = DataAccessKind::kExplicitWrite,
                         DataAccessKind read_kind = DataAccessKind::kExplicitRead,
                         bool queued = false)
      : consumed(sink) {
    comp.add_interface(value_interface("IVal", queued));

    Runnable produce;
    produce.name = "produce";
    produce.trigger = RunnableTrigger::timing(milliseconds(10));
    produce.execution_time = [] { return microseconds(100); };
    produce.accesses.push_back({"out", "val", write_kind});
    produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
      ctx.write("out", "val", ++n);
    };
    comp.add_type({"Producer",
                   {Port{"out", "IVal", PortDirection::kProvided}},
                   {produce}});

    Runnable consume;
    consume.name = "consume";
    consume.trigger = RunnableTrigger::timing(milliseconds(10));
    consume.execution_time = [] { return microseconds(100); };
    consume.accesses.push_back({"in", "val", read_kind});
    consume.behavior = [sink](RunnableContext& ctx) {
      sink->push_back(ctx.read("in", "val"));
    };
    comp.add_type({"Consumer",
                   {Port{"in", "IVal", PortDirection::kRequired}},
                   {consume}});

    comp.add_instance({"p", "Producer"});
    comp.add_instance({"k", "Consumer"});
    comp.add_connector({"p", "out", "k", "in"});
  }
};

TEST(System, SameEcuCommunication) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["k"] = {.ecu = "ecu0"};
  System sys(kernel, trace, m.comp, plan);
  EXPECT_EQ(sys.signal_count(), 0u);  // no bus traffic needed
  sys.run_for(milliseconds(100));
  ASSERT_GE(consumed.size(), 9u);
  // Values flow in order without loss (same period, local copy).
  for (std::size_t i = 1; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], consumed[i - 1] + 1);
  }
}

TEST(System, CrossEcuOverCan) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuB"};
  plan.bus = BusKind::kCan;
  System sys(kernel, trace, m.comp, plan);
  EXPECT_EQ(sys.signal_count(), 1u);
  sys.run_for(milliseconds(100));
  ASSERT_GE(consumed.size(), 8u);
  EXPECT_GT(consumed.back(), 5u);
  EXPECT_GT(sys.can_bus()->stats().frames_delivered(), 5u);
}

TEST(System, CrossEcuOverFlexRay) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuB"};
  plan.bus = BusKind::kFlexRay;
  System sys(kernel, trace, m.comp, plan);
  sys.run_for(milliseconds(100));
  ASSERT_GE(consumed.size(), 8u);
  EXPECT_GT(consumed.back(), 5u);
  EXPECT_GT(sys.flexray_bus()->stats().frames_delivered(), 5u);
}

TEST(System, DataReceivedRunnableActivated) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  comp.add_interface(value_interface("IVal"));

  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(50); };
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  produce.behavior = [](RunnableContext& ctx) {
    ctx.write("out", "val", static_cast<std::uint64_t>(ctx.now()));
  };
  comp.add_type(
      {"Producer", {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});

  std::vector<double> latencies_us;
  Runnable on_data;
  on_data.name = "on_data";
  on_data.trigger = RunnableTrigger::data_received("in", "val");
  on_data.execution_time = [] { return microseconds(10); };
  on_data.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
  on_data.behavior = [&latencies_us](RunnableContext& ctx) {
    const auto sent = static_cast<Time>(ctx.read("in", "val"));
    latencies_us.push_back(orte::sim::to_us(ctx.now() - sent));
  };
  comp.add_type(
      {"Consumer", {Port{"in", "IVal", PortDirection::kRequired}}, {on_data}});

  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k", "Consumer"});
  comp.add_connector({"p", "out", "k", "in"});

  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuB"};
  System sys(kernel, trace, comp, plan);
  sys.run_for(milliseconds(100));
  ASSERT_GE(latencies_us.size(), 9u);
  for (double l : latencies_us) {
    EXPECT_GT(l, 0.0);
    EXPECT_LT(l, 1000.0);  // one CAN frame + event task on an idle system
  }
}

TEST(System, ImplicitReadSeesStableSnapshot) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  comp.add_interface(value_interface("IVal"));

  // Fast producer (2ms) increments; slow consumer (10ms, 5ms wcet) is
  // preempted mid-execution, but implicit read pins the start-of-runnable
  // value.
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(2));
  produce.execution_time = [] { return microseconds(100); };
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
    ctx.write("out", "val", ++n);
  };
  comp.add_type(
      {"Producer", {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});

  std::vector<std::pair<std::uint64_t, Time>> reads;  // (value, completion)
  Runnable consume;
  consume.name = "consume";
  consume.trigger = RunnableTrigger::timing(milliseconds(10));
  consume.execution_time = [] { return milliseconds(5); };
  consume.accesses.push_back({"in", "val", DataAccessKind::kImplicitRead});
  consume.behavior = [&reads](RunnableContext& ctx) {
    reads.emplace_back(ctx.read("in", "val"), ctx.now());
  };
  comp.add_type(
      {"Consumer", {Port{"in", "IVal", PortDirection::kRequired}}, {consume}});

  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k", "Consumer"});
  comp.add_connector({"p", "out", "k", "in"});

  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["k"] = {.ecu = "ecu0"};
  System sys(kernel, trace, comp, plan);
  sys.run_for(milliseconds(50));
  ASSERT_GE(reads.size(), 3u);
  // Consumer job k starts at 10k ms; producer has run for instants 0..10k/2.
  // The snapshot taken at start must NOT include producer jobs that ran
  // during the consumer's 5ms execution window.
  for (const auto& [value, completed] : reads) {
    const Time start = completed - milliseconds(5) < 0
                           ? 0
                           : completed - milliseconds(5);
    // Producer value at consumer start: floor(start/2ms) + 1 jobs done,
    // give or take the job exactly at the boundary.
    const std::uint64_t at_start =
        static_cast<std::uint64_t>(start / milliseconds(2)) + 1;
    EXPECT_LE(value, at_start + 1);
  }
}

TEST(System, QueuedElementsDeliverFifoWithoutLoss) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  // Producer at 10ms, consumer at 20ms: a last-is-best element would drop
  // every other value; a queued element must deliver all, in order.
  Composition comp;
  comp.add_interface(value_interface("IVal", /*queued=*/true));
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(100); };
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
    ctx.write("out", "val", ++n);
  };
  comp.add_type(
      {"Producer", {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});
  Runnable consume;
  consume.name = "consume";
  consume.trigger = RunnableTrigger::timing(milliseconds(20));
  consume.execution_time = [] { return microseconds(100); };
  consume.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
  consume.behavior = [&consumed](RunnableContext& ctx) {
    // Drain up to two queued values per activation.
    for (int i = 0; i < 2; ++i) {
      const auto v = ctx.read("in", "val");
      if (v != 0) consumed.push_back(v);
    }
  };
  comp.add_type(
      {"Consumer", {Port{"in", "IVal", PortDirection::kRequired}}, {consume}});
  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k", "Consumer"});
  comp.add_connector({"p", "out", "k", "in"});

  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["k"] = {.ecu = "ecu0"};
  System sys(kernel, trace, comp, plan);
  sys.run_for(milliseconds(200));
  ASSERT_GE(consumed.size(), 10u);
  for (std::size_t i = 1; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], consumed[i - 1] + 1);  // FIFO, lossless
  }
}

namespace {

// Burst producer (5ms, writes exactly values 1..40 then stops) against a
// slow consumer (50ms, one drain per activation): the receiver queue
// (Rte::kDefaultQueueLength = 16 deep) fills during the burst, so which
// values survive depends only on the overflow rule, not on steady-state
// timing.
struct OverflowModel {
  Composition comp;

  explicit OverflowModel(std::vector<std::uint64_t>* sink) {
    PortInterface i;
    i.name = "IVal";
    i.kind = PortInterface::Kind::kSenderReceiver;
    i.elements.push_back(DataElement{"val", 64, 0, /*queued=*/true});
    comp.add_interface(i);

    Runnable produce;
    produce.name = "produce";
    produce.trigger = RunnableTrigger::timing(milliseconds(5));
    produce.execution_time = [] { return microseconds(100); };
    produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
    produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
      if (n < 40) ctx.write("out", "val", ++n);
    };
    comp.add_type({"Producer",
                   {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});

    Runnable consume;
    consume.name = "consume";
    consume.trigger = RunnableTrigger::timing(milliseconds(50));
    consume.execution_time = [] { return microseconds(100); };
    consume.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
    consume.behavior = [sink](RunnableContext& ctx) {
      const auto v = ctx.read("in", "val");
      if (v != 0) sink->push_back(v);
    };
    comp.add_type({"Consumer",
                   {Port{"in", "IVal", PortDirection::kRequired}}, {consume}});

    comp.add_instance({"p", "Producer"});
    comp.add_instance({"k", "Consumer"});
    comp.add_connector({"p", "out", "k", "in"});
  }
};

}  // namespace

TEST(System, QueuedElementRejectPolicyKeepsOldest) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  OverflowModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["k"] = {.ecu = "ecu0"};
  System sys(kernel, trace, m.comp, plan);
  sys.run_for(milliseconds(1100));
  // The burst (values 1..40 within 195ms) overruns the 16-deep queue while
  // the consumer pops once per 50ms. A full queue rejects the NEWEST write:
  // 1..18 fill it, then only the writes right after a pop (22 at 105ms, 32
  // at 155ms) get in; the other 20 values are lost forever. The run drains
  // everything that got in, in order.
  std::vector<std::uint64_t> kept;
  for (std::uint64_t v = 1; v <= 18; ++v) kept.push_back(v);
  kept.push_back(22);
  kept.push_back(32);
  EXPECT_EQ(consumed, kept);
  EXPECT_EQ(sys.rte("ecu0").overflows(), 20u);
  EXPECT_EQ(records_of(trace, "rte.queue_overflow", "k.in.val"), 20u);
}

TEST(System, ClientServerCallInlinedAndRouted) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  PortInterface icalc;
  icalc.name = "ICalc";
  icalc.kind = PortInterface::Kind::kClientServer;
  icalc.operations.push_back({"square", milliseconds(2)});
  comp.add_interface(icalc);

  comp.add_type(
      {"Server", {Port{"calc", "ICalc", PortDirection::kProvided}}, {}});
  comp.set_operation_handler("Server", "calc", "square",
                             [](std::uint64_t x) { return x * x; });

  std::vector<std::uint64_t> results;
  Runnable client_run;
  client_run.name = "client_run";
  client_run.trigger = RunnableTrigger::timing(milliseconds(20));
  client_run.execution_time = [] { return milliseconds(1); };
  client_run.server_calls.push_back("calc.square");
  client_run.behavior = [&results](RunnableContext& ctx) {
    results.push_back(ctx.call("calc", "square", 7));
  };
  comp.add_type(
      {"Client", {Port{"calc", "ICalc", PortDirection::kRequired}}, {client_run}});

  comp.add_instance({"srv", "Server"});
  comp.add_instance({"cli", "Client"});
  comp.add_connector({"srv", "calc", "cli", "calc"});

  DeploymentPlan plan;
  plan.instances["srv"] = {.ecu = "ecu0"};
  plan.instances["cli"] = {.ecu = "ecu0"};
  System sys(kernel, trace, comp, plan);
  sys.start();
  kernel.run_until(milliseconds(100));
  ASSERT_GE(results.size(), 4u);
  EXPECT_EQ(results[0], 49u);
  // The 2ms server WCET is inlined: client response = 1 + 2 = 3ms.
  auto* task = sys.task_of("cli", milliseconds(20));
  ASSERT_NE(task, nullptr);
  EXPECT_DOUBLE_EQ(task->response_times().max(), 3.0);
}

TEST(System, CrossEcuClientServerRejected) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  PortInterface icalc;
  icalc.name = "ICalc";
  icalc.kind = PortInterface::Kind::kClientServer;
  icalc.operations.push_back({"op", milliseconds(1)});
  comp.add_interface(icalc);
  comp.add_type(
      {"Server", {Port{"calc", "ICalc", PortDirection::kProvided}}, {}});
  Runnable r;
  r.name = "r";
  r.trigger = RunnableTrigger::timing(milliseconds(10));
  comp.add_type(
      {"Client", {Port{"calc", "ICalc", PortDirection::kRequired}}, {r}});
  comp.add_instance({"srv", "Server"});
  comp.add_instance({"cli", "Client"});
  comp.add_connector({"srv", "calc", "cli", "calc"});
  DeploymentPlan plan;
  plan.instances["srv"] = {.ecu = "ecuA"};
  plan.instances["cli"] = {.ecu = "ecuB"};
  EXPECT_THROW(System(kernel, trace, comp, plan), std::invalid_argument);
}

TEST(System, BudgetedInstanceGetsKilled) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0",
                         .budget = microseconds(50)};  // produce needs 100us
  plan.instances["k"] = {.ecu = "ecu0"};
  System sys(kernel, trace, m.comp, plan);
  sys.run_for(milliseconds(100));
  auto* ptask = sys.task_of("p", milliseconds(10));
  ASSERT_NE(ptask, nullptr);
  EXPECT_GT(ptask->jobs_killed(), 5u);
  EXPECT_EQ(ptask->jobs_completed(), 0u);
  EXPECT_TRUE(consumed.empty() ||
              consumed.back() == 0u);  // producer never published
}

TEST(System, UndeployedInstanceRejected) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};  // k missing
  EXPECT_THROW(System(kernel, trace, m.comp, plan), std::invalid_argument);
}

TEST(System, SmallSignalsSharePackedPdus) {
  // Four 16-bit elements produced by one ECU at one period must be packed
  // into a single 8-byte frame (the generator calls analysis::pack_signals),
  // yet every receiver still sees its own correct value.
  Kernel kernel;
  Trace trace;
  Composition comp;
  PortInterface iq;
  iq.name = "IQuad";
  for (int i = 0; i < 4; ++i) {
    iq.elements.push_back(DataElement{"e" + std::to_string(i), 16, 0, false});
  }
  comp.add_interface(iq);

  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(100); };
  for (int i = 0; i < 4; ++i) {
    produce.accesses.push_back(
        {"out", "e" + std::to_string(i), DataAccessKind::kExplicitWrite});
  }
  produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
    ++n;
    for (int i = 0; i < 4; ++i) {
      ctx.write("out", "e" + std::to_string(i),
                (100 * n + static_cast<std::uint64_t>(i)) & 0xFFFF);
    }
  };
  comp.add_type({"Producer",
                 {Port{"out", "IQuad", PortDirection::kProvided}}, {produce}});

  std::map<std::string, std::uint64_t> last;
  Runnable consume;
  consume.name = "consume";
  consume.trigger = RunnableTrigger::timing(milliseconds(10));
  consume.execution_time = [] { return microseconds(100); };
  for (int i = 0; i < 4; ++i) {
    consume.accesses.push_back(
        {"in", "e" + std::to_string(i), DataAccessKind::kExplicitRead});
  }
  consume.behavior = [&last](RunnableContext& ctx) {
    for (int i = 0; i < 4; ++i) {
      last["e" + std::to_string(i)] = ctx.read("in", "e" + std::to_string(i));
    }
  };
  comp.add_type({"Consumer",
                 {Port{"in", "IQuad", PortDirection::kRequired}}, {consume}});

  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k", "Consumer"});
  comp.add_connector({"p", "out", "k", "in"});

  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuB"};
  System sys(kernel, trace, comp, plan);
  EXPECT_EQ(sys.signal_count(), 4u);
  sys.run_for(milliseconds(105));

  // Values decode correctly from the shared payload...
  const std::uint64_t n = (last.at("e0") - 0) / 100;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(last.at("e" + std::to_string(i)),
              100 * n + static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(n, 9u);
  // ...and all four signals landed in one shared frame identifier.
  std::set<std::int64_t> frame_ids;
  for (const auto& rec : trace.records()) {
    if (rec.category == "can.rx") frame_ids.insert(rec.value);
  }
  EXPECT_EQ(frame_ids.size(), 1u);
}

/// Runs `comp` under `plan` for 200 ms. Each named event task on ECU `b` is
/// fed by a 10 ms writer, so it must run once per write, 20 jobs, as V9
/// counts, and respond within its analyze() bound.
void expect_one_release_per_write(const Composition& comp,
                                  const DeploymentPlan& plan,
                                  const std::vector<std::string>& sinks) {
  Kernel kernel;
  Trace trace;
  System sys(kernel, trace, comp, plan);
  const auto verdict = sys.analyze();
  sys.run_for(milliseconds(200));
  for (const auto& name : sinks) {
    const orte::os::Task* task = sys.ecu("b").find_task(name);
    ASSERT_NE(task, nullptr) << name;
    EXPECT_EQ(task->jobs_completed(), 20u) << name;
    const auto bound = verdict.task_response.find(name);
    ASSERT_NE(bound, verdict.task_response.end()) << name;
    EXPECT_LE(task->response_times().max(),
              orte::sim::to_ms(bound->second) + 1e-9)
        << name;
  }
}

TEST(System, EventConsumedSignalsGetOwnPdusOnCan) {
  // Producer p writes two 16-bit elements of one interface every 10 ms, so
  // period-grouped packing alone would put both in one PDU; ke0 and ke1 on
  // ECU b each take one as their data-received trigger. A received PDU
  // notifies every signal it carries, so in a shared PDU each write would
  // release both consumers.
  Composition comp;
  PortInterface pair;
  pair.name = "IPair";
  pair.kind = PortInterface::Kind::kSenderReceiver;
  for (const char* e : {"e0", "e1"}) {
    pair.elements.push_back(DataElement{e, 16, 0, false});
  }
  comp.add_interface(pair);
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(100); };
  for (const char* e : {"e0", "e1"}) {
    produce.accesses.push_back({"out", e, DataAccessKind::kExplicitWrite});
  }
  produce.behavior = [](RunnableContext& ctx) {
    ctx.write("out", "e0", 1);
    ctx.write("out", "e1", 2);
  };
  comp.add_type({"Producer",
                 {Port{"out", "IPair", PortDirection::kProvided}},
                 {produce}});
  comp.add_instance({"p", "Producer"});
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "a"};
  for (const std::string e : {"e0", "e1"}) {
    Runnable on;
    on.name = "on_" + e;
    on.trigger = RunnableTrigger::data_received("in", e);
    on.execution_time = [] { return milliseconds(2); };
    comp.add_type(
        {"C" + e, {Port{"in", "IPair", PortDirection::kRequired}}, {on}});
    comp.add_instance({"k" + e, "C" + e});
    comp.add_connector({"p", "out", "k" + e, "in"});
    plan.instances["k" + e] = {.ecu = "b"};
  }
  plan.bus = BusKind::kCan;
  expect_one_release_per_write(comp, plan, {"tk|ke0|on_e0", "tk|ke1|on_e1"});
}

TEST(System, EventConsumedSignalsGetOwnPdusOnFlexRay) {
  // Two 10 ms writers on ECU a, p0 (3 ms) and p1 (1 ms), write at different
  // phases; each feeds a 0.5 ms event consumer on ECU b. In one shared
  // static slot, each writer's frame would release both consumers.
  Composition comp;
  PortInterface small;
  small.name = "ISmall";
  small.kind = PortInterface::Kind::kSenderReceiver;
  small.elements.push_back(DataElement{"val", 16, 0, false});
  comp.add_interface(small);
  DeploymentPlan plan;
  const orte::sim::Duration wcets[] = {milliseconds(3), milliseconds(1)};
  for (int i = 0; i < 2; ++i) {
    const std::string s = std::to_string(i);
    Runnable produce;
    produce.name = "produce";
    produce.trigger = RunnableTrigger::timing(milliseconds(10));
    produce.execution_time = [wcet = wcets[i]] { return wcet; };
    produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
    produce.behavior = [](RunnableContext& ctx) { ctx.write("out", "val", 1); };
    comp.add_type({"P" + s,
                   {Port{"out", "ISmall", PortDirection::kProvided}},
                   {produce}});
    Runnable on_data;
    on_data.name = "on_data";
    on_data.trigger = RunnableTrigger::data_received("in", "val");
    on_data.execution_time = [] { return microseconds(500); };
    comp.add_type({"K" + s,
                   {Port{"in", "ISmall", PortDirection::kRequired}},
                   {on_data}});
    comp.add_instance({"p" + s, "P" + s});
    comp.add_instance({"k" + s, "K" + s});
    comp.add_connector({"p" + s, "out", "k" + s, "in"});
    plan.instances["p" + s] = {.ecu = "a"};
    plan.instances["k" + s] = {.ecu = "b"};
  }
  plan.bus = BusKind::kFlexRay;
  expect_one_release_per_write(comp, plan, {"tk|k0|on_data", "tk|k1|on_data"});
}

TEST(System, ConfigurationCheckBoundsSimulation) {
  // §2's "prior to implementation system configuration checks": the verdict
  // from System::analyze() must upper-bound what the running system does.
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuA"};  // same ECU: both tasks periodic
  System sys(kernel, trace, m.comp, plan);
  const auto verdict = sys.analyze();
  EXPECT_TRUE(verdict.schedulable);
  EXPECT_TRUE(verdict.complete);
  sys.run_for(milliseconds(500));
  for (const char* inst : {"p", "k"}) {
    auto* task = sys.task_of(inst, milliseconds(10));
    ASSERT_NE(task, nullptr);
    const auto bound = verdict.task_response.at(task->name());
    EXPECT_LE(task->response_times().max(), orte::sim::to_ms(bound) + 1e-9);
  }
}

TEST(System, ConfigurationCheckFlagsIncompleteness) {
  // A data-received consumer on another ECU inherits its producer's period
  // through the frame that activates it, so the check bounds it. An event
  // task nothing activates has no derivable period: the check must say so
  // instead of pretending.
  Kernel kernel;
  Trace trace;
  Composition comp;
  comp.add_interface(value_interface("IVal"));
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(100); };
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  comp.add_type({"Producer",
                 {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});
  comp.add_type(
      {"Silent", {Port{"out", "IVal", PortDirection::kProvided}}, {}});
  Runnable on_data;
  on_data.name = "on_data";
  on_data.trigger = RunnableTrigger::data_received("in", "val");
  on_data.execution_time = [] { return microseconds(10); };
  on_data.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
  comp.add_type({"Consumer",
                 {Port{"in", "IVal", PortDirection::kRequired}}, {on_data}});
  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k", "Consumer"});
  comp.add_connector({"p", "out", "k", "in"});
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k"] = {.ecu = "ecuB"};
  {
    System sys(kernel, trace, comp, plan);
    const auto verdict = sys.analyze();
    EXPECT_TRUE(verdict.schedulable);
    EXPECT_TRUE(verdict.complete);
    EXPECT_EQ(verdict.task_response.count("tk|k|on_data"), 1u);
    EXPECT_EQ(verdict.pdu_response.size(), 1u);
  }

  // A second consumer fed by an instance that never writes, and an event
  // task that only its own writes activate: validation only notes the
  // first (V3 info), so the system builds, but neither task is ever
  // activated and both stay unbounded.
  comp.add_instance({"s", "Silent"});
  comp.add_instance({"idle", "Consumer"});
  comp.add_connector({"s", "out", "idle", "in"});
  Runnable echo = on_data;
  echo.name = "echo";
  echo.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  comp.add_type({"Echo",
                 {Port{"in", "IVal", PortDirection::kRequired},
                  Port{"out", "IVal", PortDirection::kProvided}},
                 {echo}});
  comp.add_instance({"loop", "Echo"});
  comp.add_connector({"loop", "out", "loop", "in"});
  for (const char* inst : {"s", "idle", "loop"}) {
    plan.instances[inst] = {.ecu = "ecuB"};
  }
  const auto report = orte::validation::validate(comp, plan);
  EXPECT_FALSE(report.has_errors()) << report.render();
  System sys(kernel, trace, comp, plan);
  const auto verdict = sys.analyze();
  EXPECT_TRUE(verdict.schedulable);
  EXPECT_FALSE(verdict.complete);
  EXPECT_EQ(verdict.task_response.count("tk|k|on_data"), 1u);
  EXPECT_EQ(verdict.task_response.count("tk|idle|on_data"), 0u);
  EXPECT_EQ(verdict.task_response.count("tk|loop|echo"), 0u);
}

TEST(System, BroadcastFanOutToMultipleEcus) {
  // One provided port wired to receivers on two different ECUs: a single
  // bus frame must feed both (CAN is a broadcast medium; the generator
  // creates one tx PDU and one rx PDU per receiving ECU).
  Kernel kernel;
  Trace trace;
  Composition comp;
  comp.add_interface(value_interface("IVal"));
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.execution_time = [] { return microseconds(100); };
  produce.accesses.push_back({"out", "val", DataAccessKind::kExplicitWrite});
  produce.behavior = [n = std::uint64_t{0}](RunnableContext& ctx) mutable {
    ctx.write("out", "val", ++n);
  };
  comp.add_type({"Producer",
                 {Port{"out", "IVal", PortDirection::kProvided}}, {produce}});

  std::map<std::string, std::uint64_t> last;
  Runnable consume;
  consume.name = "consume";
  consume.trigger = RunnableTrigger::data_received("in", "val");
  consume.execution_time = [] { return microseconds(50); };
  consume.accesses.push_back({"in", "val", DataAccessKind::kExplicitRead});
  consume.behavior = [&last](RunnableContext& ctx) {
    last[ctx.instance()] = ctx.read("in", "val");
  };
  comp.add_type({"Consumer",
                 {Port{"in", "IVal", PortDirection::kRequired}}, {consume}});

  comp.add_instance({"p", "Producer"});
  comp.add_instance({"k1", "Consumer"});
  comp.add_instance({"k2", "Consumer"});
  comp.add_connector({"p", "out", "k1", "in"});
  comp.add_connector({"p", "out", "k2", "in"});

  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecuA"};
  plan.instances["k1"] = {.ecu = "ecuB"};
  plan.instances["k2"] = {.ecu = "ecuC"};
  System sys(kernel, trace, comp, plan);
  sys.run_for(milliseconds(100));
  // Both remote consumers track the producer; one frame per update serves
  // both ECUs (10 updates -> ~10 bus frames, not 20).
  EXPECT_GE(last["k1"], 9u);
  EXPECT_EQ(last["k1"], last["k2"]);
  EXPECT_LE(sys.can_bus()->stats().frames_delivered(), 11u);
}

TEST(System, FullSystemRunsAreDeterministic) {
  // Bit-for-bit reproducibility of a whole generated system: two identical
  // runs produce identical trace event counts and task statistics.
  auto run = [] {
    Kernel kernel;
    Trace trace;
    std::vector<std::uint64_t> consumed;
    PipelineModel m(&consumed);
    DeploymentPlan plan;
    plan.instances["p"] = {.ecu = "ecuA"};
    plan.instances["k"] = {.ecu = "ecuB"};
    plan.bus = BusKind::kFlexRay;
    System sys(kernel, trace, m.comp, plan);
    sys.run_for(milliseconds(500));
    return std::tuple{consumed, trace.records().size(),
                      sys.task_of("k", milliseconds(10))->response_times()
                          .max()};
  };
  EXPECT_EQ(run(), run());
}

TEST(System, TimeTriggeredDeploymentRunsContentionFree) {
  Kernel kernel;
  Trace trace;
  std::vector<std::uint64_t> consumed;
  PipelineModel m(&consumed);
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["k"] = {.ecu = "ecu0"};
  plan.scheduling = SchedulingPolicy::kTimeTriggered;
  System sys(kernel, trace, m.comp, plan);
  sys.run_for(milliseconds(200));
  // Data still flows...
  ASSERT_GE(consumed.size(), 15u);
  // ...and both table-dispatched tasks run with zero response variation.
  for (const char* inst : {"p", "k"}) {
    auto* task = sys.task_of(inst, milliseconds(10));
    ASSERT_NE(task, nullptr) << inst;
    EXPECT_EQ(task->deadline_misses(), 0u);
    EXPECT_DOUBLE_EQ(task->response_times().min(),
                     task->response_times().max());
  }
}

TEST(System, TimeTriggeredSynthesisFailureRejected) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  // Two 10ms runnables whose declared WCETs (7ms each) cannot be placed
  // non-preemptively.
  for (const char* name : {"A", "B"}) {
    Runnable r;
    r.name = std::string("run_") + name;
    r.trigger = RunnableTrigger::timing(milliseconds(10));
    r.execution_time = [] { return milliseconds(7); };
    r.wcet_bound = milliseconds(7);
    comp.add_type({name, {}, {r}});
    comp.add_instance({std::string("i") + name, name});
  }
  DeploymentPlan plan;
  plan.instances["iA"] = {.ecu = "ecu0"};
  plan.instances["iB"] = {.ecu = "ecu0"};
  plan.scheduling = SchedulingPolicy::kTimeTriggered;
  EXPECT_THROW(System(kernel, trace, comp, plan), std::invalid_argument);
}

TEST(Rte, UndeclaredAccessRejected) {
  Kernel kernel;
  Trace trace;
  Composition comp;
  comp.add_interface(value_interface("IVal"));
  Runnable r;
  r.name = "r";
  r.trigger = RunnableTrigger::timing(milliseconds(10));
  // No declared accesses, but behavior reads anyway.
  r.behavior = [](RunnableContext& ctx) { ctx.read("in", "val"); };
  comp.add_type({"C", {Port{"in", "IVal", PortDirection::kRequired}}, {r}});
  comp.add_instance({"c", "C"});
  DeploymentPlan plan;
  plan.instances["c"] = {.ecu = "ecu0"};
  System sys(kernel, trace, comp, plan);
  EXPECT_THROW(sys.run_for(milliseconds(20)), std::logic_error);
}

// --- Lowering -------------------------------------------------------------------

TEST(Lowering, InventoryBlamesTaskOwnersAndProducers) {
  // brake_by_wire with alive supervision, plus a behaviour contract on one
  // wheel, lowers every inventory kind.
  orte::fi::ModelBundle bundle = orte::fi::workloads::brake_by_wire(true);
  orte::contracts::Contract wheel = bundle.model.bound_contracts().at("wheel_fl");
  orte::contracts::TimedAutomaton ta;
  const int idle = ta.add_location("idle");
  ta.add_edge(idle, idle, "pos");
  wheel.behaviour = orte::contracts::BehaviourSpec{
      .automaton = ta, .bindings = {{"in.pos", "pos"}}};
  bundle.model.bind_contract("wheel_fl", wheel);
  const Lowering lw = lower(bundle.model, bundle.plan);
  EXPECT_TRUE(lw.problems.empty());

  using Kind = MonitorEntry::Kind;
  std::map<Kind, std::set<std::string>> blames;
  std::map<Kind, std::set<std::string>> subjects;
  for (const auto& m : lw.monitors) {
    blames[m.kind].insert(m.blame);
    subjects[m.kind].insert(m.subject);
  }
  // A deadline blames the owner of its task.
  const std::set<std::string> instances{"pedal", "wheel_fl", "wheel_fr",
                                        "wheel_rl", "wheel_rr"};
  EXPECT_EQ(blames[Kind::kDeadline], instances);
  EXPECT_TRUE(subjects[Kind::kDeadline].count("tk|pedal|5000000"));
  EXPECT_TRUE(subjects[Kind::kDeadline].count("tk|wheel_fl|control"));
  // Every flow monitor blames the producer, including the ones a wheel's
  // contract compiles on its own receiver slot.
  for (const Kind kind : {Kind::kArrival, Kind::kRangeWrite,
                          Kind::kRangeDeliver, Kind::kLatency,
                          Kind::kAutomaton, Kind::kAlive}) {
    EXPECT_EQ(blames[kind], std::set<std::string>{"pedal"})
        << static_cast<int>(kind);
  }
  EXPECT_EQ(subjects[Kind::kRangeDeliver],
            (std::set<std::string>{"wheel_fl.in.pos", "wheel_fr.in.pos",
                                   "wheel_rl.in.pos", "wheel_rr.in.pos"}));
  EXPECT_EQ(subjects[Kind::kAutomaton],
            std::set<std::string>{"pedal.out.pos"});
  for (const auto& m : lw.monitors) {
    if (m.kind == Kind::kLatency) {
      EXPECT_EQ(m.sink_runnable, "control");
    }
  }
}

TEST(Lowering, MalformedModelLowersAndListsWhatWasSkipped) {
  Composition comp;
  PortInterface ival;
  ival.name = "IVal";
  ival.elements.push_back(DataElement{"v", 32, 0, false});
  comp.add_interface(ival);
  Runnable produce;
  produce.name = "produce";
  produce.trigger = RunnableTrigger::timing(milliseconds(10));
  produce.wcet_bound = milliseconds(1);
  produce.accesses.push_back({"out", "v", DataAccessKind::kExplicitWrite});
  produce.server_calls.push_back("no_separator");
  comp.add_type({"P", {Port{"out", "IVal", PortDirection::kProvided}},
                 {produce}});
  comp.add_instance({"p", "P"});
  comp.add_instance({"ghost", "NoSuchType"});
  comp.add_instance({"idle", "P"});
  comp.add_connector({"p", "out", "nobody", "in"});
  DeploymentPlan plan;
  plan.instances["p"] = {.ecu = "ecu0"};
  plan.instances["ghost"] = {.ecu = "ecu0"};

  Lowering lw;
  EXPECT_NO_THROW(lw = lower(comp, plan));
  std::vector<std::pair<LoweringProblem::Kind, std::string>> skipped;
  for (const auto& problem : lw.problems) {
    skipped.emplace_back(problem.kind, problem.subject);
  }
  using K = LoweringProblem::Kind;
  EXPECT_EQ(skipped, (std::vector<std::pair<K, std::string>>{
                         {K::kServerCall, "p.produce"},
                         {K::kUnresolved, "ghost"},
                         {K::kUndeployed, "idle"},
                         {K::kUnresolved, "p.out->nobody.in"}}));
  // What does resolve is still lowered: p's task, at the server call's
  // skipped cost.
  ASSERT_EQ(lw.tasks.size(), 1u);
  EXPECT_EQ(lw.tasks[0].name, "tk|p|10000000");
  EXPECT_EQ(lw.tasks[0].wcet, milliseconds(1));
  ASSERT_EQ(lw.runnables.size(), 2u);  // p and the undeployed idle
  EXPECT_EQ(lw.runnables[1].writes, std::vector<std::string>{"idle.out.v"});
}

}  // namespace
