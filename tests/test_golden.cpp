// Golden whole-system digests: each workload below runs the full stack for a
// fixed horizon with trace retention on, and every retained record
// (when, category, subject, value, detail) is folded into an FNV-1a digest.
// The digest and the record count pin the simulated behaviour bit for bit,
// so a refactor or optimization of any layer (kernel, OS scheduler, RTE,
// COM/bus, rv, fi hooks) that changes one record, its order, or the record
// count fails here. A deliberate behaviour change must regenerate the pins
// and say why.
//
// GoldenDiagnostics pins the static side the same way: the rendered
// validator report, its SARIF export, System::analyze() and the fault-
// detectability planes and verdicts of representative models, each folded
// into an FNV-1a digest of its text.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "contracts/contract.hpp"
#include "fi/campaign.hpp"
#include "fi/injector.hpp"
#include "fi/workloads.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"
#include "validation/detectability.hpp"
#include "validation/sarif.hpp"
#include "validation/validator.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte;
using sim::microseconds;
using sim::milliseconds;

struct Digest {
  std::uint64_t hash = 0;
  std::size_t records = 0;
};

/// FNV-1a over every retained record. Integers enter as 8 little-endian
/// bytes and strings with a length prefix, so field boundaries are
/// unambiguous and the digest does not depend on the host's byte order.
Digest digest_of(const sim::Trace& trace) {
  std::uint64_t h = 14695981039346656037ull;
  const auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto num = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto str = [&](const std::string& s) {
    num(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  };
  for (const auto& rec : trace.records()) {
    num(static_cast<std::uint64_t>(rec.when));
    str(rec.category);
    str(rec.subject);
    num(static_cast<std::uint64_t>(rec.value));
    str(rec.detail);
  }
  return {h, trace.records().size()};
}

/// FNV-1a over the bytes of one rendered output.
std::uint64_t digest_of(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest printed in hex, so a failing pin is easy to regenerate.
std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_digest(const Digest& got, std::uint64_t hash,
                   std::size_t records) {
  EXPECT_EQ(got.records, records);
  EXPECT_EQ(hex(got.hash), hex(hash));
}

// --- E8b pipelines ------------------------------------------------------------

constexpr int kPipelinesPerEcu = 64;

/// The E8b shape: contracted 1 kHz sensor->filter pipelines, sharded 64 per
/// ECU so every connector routes locally. With `implicit`, the sensor
/// publishes a running count through an implicit write and the filter
/// republishes what its implicit snapshot read (plus one) on an unconnected
/// output, so the snapshot contents reach the trace.
vfb::Composition pipeline_model(int pipelines, bool implicit) {
  vfb::Composition model;
  vfb::PortInterface ival;
  ival.name = "IVal";
  ival.elements.push_back(vfb::DataElement{"v", 32, 0, false});
  model.add_interface(ival);

  const auto exec = [] { return microseconds(2); };
  vfb::Runnable produce;
  produce.name = "produce";
  produce.trigger = vfb::RunnableTrigger::timing(milliseconds(1));
  produce.execution_time = exec;
  if (implicit) {
    produce.accesses.push_back(
        {"out", "v", vfb::DataAccessKind::kImplicitWrite});
    produce.behavior = [n = std::uint64_t{0}](
                           vfb::RunnableContext& ctx) mutable {
      ctx.write("out", "v", n++);
    };
  } else {
    produce.accesses.push_back(
        {"out", "v", vfb::DataAccessKind::kExplicitWrite});
    produce.behavior = [](vfb::RunnableContext& ctx) {
      ctx.write("out", "v", 1);
    };
  }
  model.add_type({"Sensor",
                  {vfb::Port{"out", "IVal", vfb::PortDirection::kProvided}},
                  {produce}});

  vfb::Runnable consume;
  consume.name = "consume";
  consume.trigger = vfb::RunnableTrigger::data_received("in", "v");
  consume.execution_time = exec;
  std::vector<vfb::Port> filter_ports = {
      vfb::Port{"in", "IVal", vfb::PortDirection::kRequired}};
  if (implicit) {
    consume.accesses.push_back(
        {"in", "v", vfb::DataAccessKind::kImplicitRead});
    consume.accesses.push_back(
        {"out", "v", vfb::DataAccessKind::kImplicitWrite});
    consume.behavior = [](vfb::RunnableContext& ctx) {
      ctx.write("out", "v", ctx.read("in", "v") + 1);
    };
    filter_ports.push_back(
        vfb::Port{"out", "IVal", vfb::PortDirection::kProvided});
  } else {
    consume.accesses.push_back(
        {"in", "v", vfb::DataAccessKind::kExplicitRead});
    consume.behavior = [](vfb::RunnableContext& ctx) {
      (void)ctx.read("in", "v");
    };
  }
  model.add_type({"Filter", filter_ports, {consume}});

  for (int i = 0; i < pipelines; ++i) {
    const std::string s = "sensor" + std::to_string(i);
    const std::string f = "filter" + std::to_string(i);
    model.add_instance({s, "Sensor"});
    model.add_instance({f, "Filter"});
    model.add_connector({s, "out", f, "in"});
    contracts::Contract cs;
    cs.name = "C_" + s;
    cs.guarantees.push_back(
        {.flow = "out.v", .timing = {.period = milliseconds(1),
                                     .jitter = milliseconds(1),
                                     .latency = milliseconds(5)}});
    model.bind_contract(s, cs);
    contracts::Contract cf;
    cf.name = "C_" + f;
    cf.assumptions.push_back(
        {.flow = "in.v", .timing = {.latency = milliseconds(5)}});
    model.bind_contract(f, cf);
  }
  return model;
}

vfb::DeploymentPlan pipeline_plan(int pipelines, bool rv_on) {
  vfb::DeploymentPlan plan;
  for (int i = 0; i < pipelines; ++i) {
    const std::string ecu = "ecu" + std::to_string(i / kPipelinesPerEcu);
    plan.instances["sensor" + std::to_string(i)] = {.ecu = ecu};
    plan.instances["filter" + std::to_string(i)] = {.ecu = ecu};
  }
  plan.runtime_verification = rv_on;
  return plan;
}

Digest run_pipelines(int pipelines, bool rv_on, bool implicit,
                     sim::Duration horizon) {
  const vfb::Composition model = pipeline_model(pipelines, implicit);
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, model, pipeline_plan(pipelines, rv_on));
  sys.run_for(horizon);
  return digest_of(trace);
}

TEST(GoldenDigest, Pipelines64RvOn) {
  expect_digest(run_pipelines(64, true, false, milliseconds(200)),
                0xefb4c258f77aa87cull, 128065);
}

TEST(GoldenDigest, Pipelines64RvOff) {
  // Monitors are pure observers: the same digest as with rv on.
  expect_digest(run_pipelines(64, false, false, milliseconds(200)),
                0xefb4c258f77aa87cull, 128065);
}

TEST(GoldenDigest, Pipelines64Implicit) {
  expect_digest(run_pipelines(64, true, true, milliseconds(200)),
                0x459e168f311d3ebdull, 140865);
}

TEST(GoldenDigest, Pipelines64RvRoutingCounters) {
  // In 100 ms the 64 pipelines emit 6 400 sensor writes, 12 800 runnable
  // records (sensor and filter) and 12 800 task completions: all 32 000 are
  // of a watched category. Only the 6 400 sensor runnable records name a
  // subject no monitor watches, so 25 600 reach a monitor.
  const vfb::Composition model = pipeline_model(64, false);
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, model, pipeline_plan(64, true));
  sys.run_for(milliseconds(100));
  EXPECT_EQ(sys.monitors()->records_routed(), 32000u);
  EXPECT_EQ(sys.monitors()->records_delivered(), 25600u);
}

TEST(GoldenDigest, Pipelines256OnFourEcus) {
  expect_digest(run_pipelines(256, true, false, milliseconds(50)),
                0x3e97cc0a2e765ccfull, 128260);
}

// --- brake_by_wire, wired the way the fi campaign wires a scenario ------------

/// One campaign-style scenario: DEM, degraded/recovery modes, escalation and
/// the rv heartbeat, with `faults` installed through fi::install_faults.
Digest run_brake_by_wire(const std::vector<fi::Fault>& faults,
                         bool alive_supervision,
                         vfb::BusKind bus = vfb::BusKind::kFlexRay) {
  const fi::CampaignConfig cfg;
  fi::ModelBundle bundle = fi::workloads::brake_by_wire(alive_supervision);
  bundle.plan.bus = bus;
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, bundle.model, bundle.plan);
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", bundle.initial_mode);
  modes.add_mode(bundle.degraded_mode);
  modes.add_transition(bundle.initial_mode, bundle.degraded_mode);
  modes.add_transition(bundle.degraded_mode, bundle.initial_mode);
  sys.monitors()->report_to(dem, cfg.debounce);
  sys.monitors()->escalate_to(modes, bundle.degraded_mode,
                              cfg.escalation_threshold);
  fi::install_faults(kernel, sys, faults, sim::Rng(cfg.seed).fork(1));
  kernel.schedule_periodic(
      cfg.heartbeat, cfg.heartbeat,
      [&sys, &dem] {
        sys.monitors()->flush();
        dem.operation_cycle_end();
      },
      sim::EventOrder::kObserver);
  sys.run_for(cfg.horizon);
  // Index-drift guard at system scale: every category's count matches its
  // retained records.
  EXPECT_TRUE(test::counts_match_records(trace));
  return digest_of(trace);
}

/// The standard grid's babbling idiot (fi::workloads::standard_faults()).
std::vector<fi::Fault> standard_babbler() {
  std::vector<fi::Fault> faults;
  for (const fi::Fault& f : fi::workloads::standard_faults()) {
    if (f.kind == fi::FaultKind::kBabblingIdiot) {
      faults.push_back(f);
      faults.back().from = fi::CampaignConfig{}.onset;  // as add_fault does
    }
  }
  return faults;
}

TEST(GoldenDigest, BrakeByWireFaultFree) {
  expect_digest(run_brake_by_wire({}, false), 0xd222d6768c8ef989ull, 6402);
}

TEST(GoldenDigest, BrakeByWireStuckAt) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kStuckAt,
                                    .target = "pedal.out.pos",
                                    .from = milliseconds(200),
                                    .value = 4000}},
                                  false),
                0xb6b077d2a8dad80dull, 2267);
}

TEST(GoldenDigest, BrakeByWireTaskCrashSupervised) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kTaskCrash,
                                    .target = "pedal",
                                    .from = milliseconds(200)}},
                                  true),
                0xf02cb1ca17856e3aull, 2086);
}

TEST(GoldenDigest, BrakeByWireFrameCorrupt) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kFrameCorrupt,
                                    .from = milliseconds(200),
                                    .probability = 0.6,
                                    .value = 0x40}},
                                  false),
                0x149a14fa1cc90da1ull, 2371);
}

// The babbling idiot reaches only FlexRay's dynamic segment, so every rogue
// frame passes the bus's queue, mini-slotting and delivery path.
TEST(GoldenDigest, BrakeByWireBabblerFlexRay) {
  expect_digest(run_brake_by_wire(standard_babbler(), false),
                0xe5e38111cfcedc1aull, 22396);
}

// On CAN the same rogue node wins every arbitration round.
TEST(GoldenDigest, BrakeByWireBabblerCan) {
  expect_digest(
      run_brake_by_wire(standard_babbler(), false, vfb::BusKind::kCan),
      0xd4b2bbb77cde27fcull, 8083);
}

// --- Bare OS scheduler --------------------------------------------------------

/// One ECU exercising every scheduling rule at once: a budgeted partition
/// that exhausts and replenishes, preemption across priorities,
/// equal-priority periodic and event tasks (the incumbent and
/// registration-order tie rules), queued event activations and a deadline
/// miss.
TEST(GoldenDigest, BareEcuPartitionCeilingEqualPriorities) {
  sim::Kernel kernel;
  sim::Trace trace;
  os::Ecu ecu(kernel, trace, "ecu0");
  const int part = ecu.add_partition(
      {.name = "p0", .budget = milliseconds(3), .period = milliseconds(10)});

  os::Task& event_b = ecu.add_task(
      {.name = "event_b", .priority = 2, .max_pending_activations = 2});
  event_b.set_body(microseconds(700));
  os::Task& a = ecu.add_task({.name = "a", .priority = 2,
                              .period = milliseconds(10), .partition = part});
  a.add_segment({.duration = [] { return milliseconds(1); }});
  a.add_segment({.duration = [] { return milliseconds(3); }});
  os::Task& b = ecu.add_task({.name = "b", .priority = 2,
                              .period = milliseconds(10),
                              .offset = microseconds(500)});
  b.set_body(milliseconds(2));
  os::Task& event_a = ecu.add_task(
      {.name = "event_a", .priority = 2, .max_pending_activations = 2});
  event_a.set_body(microseconds(300));
  os::Task& hi = ecu.add_task({.name = "hi", .priority = 3,
                               .period = milliseconds(20),
                               .offset = microseconds(400)});
  hi.add_segment({.duration = [] { return microseconds(800); }});
  os::Task& lo = ecu.add_task({.name = "lo", .priority = 1,
                               .period = milliseconds(5),
                               .relative_deadline = milliseconds(4)});
  lo.add_segment({.duration = [] { return milliseconds(1); },
                  .after = [&ecu, &event_a, &event_b] {
                    ecu.activate(event_b);
                    ecu.activate(event_a);
                    ecu.activate(event_a);
                  }});
  // Preempts `a` while `hi` is released, so its completion hands the CPU
  // to the released higher-priority job, not back to the preempted one.
  os::Task& top = ecu.add_task({.name = "top", .priority = 4,
                                .period = milliseconds(20),
                                .offset = microseconds(200)});
  top.set_body(microseconds(400));
  ecu.start();
  kernel.run_until(milliseconds(200));

  EXPECT_GT(ecu.partition_throttles(part), 0u);
  EXPECT_GT(lo.deadline_misses(), 0u);
  expect_digest(digest_of(trace), 0xcc0e9bb6a13823fcull, 775);
}

// --- Static outputs: validator, SARIF, System::analyze(), detectability ----

/// The four pinned static outputs of one (model, plan).
struct StaticDigests {
  std::uint64_t report = 0;
  std::uint64_t sarif = 0;
  std::uint64_t analysis = 0;
  std::uint64_t detectability = 0;
};

std::string render_analysis(const validation::ChainAnalysis& a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", a.bus_utilization);
  std::string out = "schedulable=" + std::to_string(a.schedulable) +
                    " complete=" + std::to_string(a.complete) +
                    " bus_utilization=" + buf + "\n";
  for (const auto& [name, r] : a.task_response) {
    out += "task " + name + " " + std::to_string(r) + "\n";
  }
  for (const auto& [name, r] : a.pdu_response) {
    out += "pdu " + name + " " + std::to_string(r) + "\n";
  }
  for (const auto& cb : a.bounds) {
    out += "chain " + cb.contract + " " + cb.instance + " " + cb.flow + " [" +
           cb.sink_task + "] " + std::to_string(cb.deadline) + " " +
           std::to_string(cb.bound) + " " + std::to_string(cb.computable) +
           "\n";
  }
  return out;
}

std::string render_plane(const validation::MonitorPlane& p) {
  return std::string(vfb::to_string(p.kind)) + " | " + p.observable +
         " | " + p.blame;
}

std::string render_detectability(const validation::DetectabilityAnalysis& d) {
  std::string out;
  for (const auto& p : d.monitors) out += "plane " + render_plane(p) + "\n";
  for (const auto& v : d.verdicts) {
    out += "verdict " + v.fault.label() +
           " perturbs=" + std::to_string(v.perturbs) +
           " detectable=" + std::to_string(v.detectable) +
           " gap=" + std::to_string(v.containment_gap) +
           " contained=" + std::to_string(v.contained) + "\n";
    for (const auto& o : v.observers) out += "  sees " + render_plane(o) + "\n";
  }
  return out;
}

StaticDigests static_digests(const vfb::Composition& model,
                             const vfb::DeploymentPlan& plan) {
  StaticDigests d;
  const validation::Diagnostics report = validation::validate(model, plan);
  d.report = digest_of(report.render());
  d.sarif = digest_of(validation::to_sarif(report));
  sim::Kernel kernel;
  sim::Trace trace;
  const vfb::System sys(kernel, trace, model, plan);
  d.analysis = digest_of(render_analysis(sys.analyze()));
  // The standard faults this model admits (most name brake_by_wire parts).
  std::vector<fi::Fault> faults;
  for (const fi::Fault& f : fi::workloads::standard_faults()) {
    try {
      validation::check_faults(sys.lowering(), {f});
      faults.push_back(f);
    } catch (const std::invalid_argument&) {
    }
  }
  d.detectability = digest_of(render_detectability(
      validation::analyze_detectability(model, plan, faults)));
  return d;
}

void expect_static(const StaticDigests& got, std::uint64_t report,
                   std::uint64_t sarif, std::uint64_t analysis,
                   std::uint64_t detectability) {
  EXPECT_EQ(hex(got.report), hex(report));
  EXPECT_EQ(hex(got.sarif), hex(sarif));
  EXPECT_EQ(hex(got.analysis), hex(analysis));
  EXPECT_EQ(hex(got.detectability), hex(detectability));
}

/// The E8b pipelines, all 64 on one ECU.
vfb::DeploymentPlan pipelines64_plan() {
  vfb::DeploymentPlan plan;
  for (int i = 0; i < 64; ++i) {
    plan.instances["sensor" + std::to_string(i)] = {.ecu = "ecu0"};
    plan.instances["filter" + std::to_string(i)] = {.ecu = "ecu0"};
  }
  return plan;
}

TEST(GoldenDiagnostics, Pipelines64) {
  expect_static(static_digests(pipeline_model(64, false), pipelines64_plan()),
                0x24aeca73e3d7780eull, 0x41021c4f8395c33aull,
                0x841c8db390a8b20dull, 0xc7cf21cbe396a3c8ull);
}

/// The configuration check bounds every task of the pinned E8b model, the
/// 64 filter event tasks included; those run above the sensors, so every
/// sensor's bound must count them.
TEST(ConfigurationCheck, Pipelines64BoundsEverySimulatedResponse) {
  const vfb::Composition model = pipeline_model(64, false);
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  vfb::System sys(kernel, trace, model, pipelines64_plan());
  const validation::ChainAnalysis verdict = sys.analyze();
  ASSERT_TRUE(verdict.schedulable);
  EXPECT_TRUE(verdict.complete);
  sys.run_for(milliseconds(100));
  const auto& tasks = sys.ecu("ecu0").tasks();
  ASSERT_EQ(tasks.size(), 128u);
  for (const auto& task : tasks) {
    const auto bound = verdict.task_response.find(task->name());
    ASSERT_NE(bound, verdict.task_response.end()) << task->name();
    EXPECT_GT(task->jobs_completed(), 0u) << task->name();
    EXPECT_LE(task->response_times().max(), sim::to_ms(bound->second) + 1e-9)
        << task->name();
  }
}

TEST(GoldenDiagnostics, BrakeByWire) {
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire(false);
  expect_static(static_digests(bundle.model, bundle.plan),
                0x9ec75ed963ecf68aull, 0x9bfc1e78fbef0054ull,
                0x39061ff972e523a5ull, 0x11d5e49d71609ca3ull);
}

TEST(GoldenDiagnostics, BrakeByWireAliveSupervision) {
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire(true);
  expect_static(static_digests(bundle.model, bundle.plan),
                0x45db2a2c9809f5a6ull, 0x699b40b32cd60830ull,
                0x39061ff972e523a5ull, 0xadd8460bf9961a31ull);
}

/// Three-ECU chain: two sensors on ecu_a (one explicit 16-bit flow at 5 ms,
/// one implicit two-element flow at 10 ms) feed an event-triggered filter on
/// ecu_b, whose output activates an actuator on ecu_c; a monitor on ecu_b
/// taps the fast sensor and also polls it every 20 ms. Contracts cover every
/// monitor kind: periods, value ranges on both sides, latencies and a
/// request/response automaton on the filter.
vfb::Composition chain_model() {
  using vfb::DataAccessKind;
  using vfb::Port;
  using vfb::PortDirection;
  using vfb::Runnable;
  using vfb::RunnableTrigger;
  vfb::Composition model;
  vfb::PortInterface ival;
  ival.name = "IVal";
  ival.elements.push_back(vfb::DataElement{"v", 16, 0, false});
  model.add_interface(ival);
  vfb::PortInterface ipair;
  ipair.name = "IPair";
  ipair.elements.push_back(vfb::DataElement{"a", 8, 0, false});
  ipair.elements.push_back(vfb::DataElement{"b", 8, 0, false});
  model.add_interface(ipair);

  Runnable sample;
  sample.name = "sample";
  sample.trigger = RunnableTrigger::timing(milliseconds(5));
  sample.wcet_bound = microseconds(200);
  sample.accesses.push_back({"out", "v", DataAccessKind::kExplicitWrite});
  model.add_type(
      {"Sensor", {Port{"out", "IVal", PortDirection::kProvided}}, {sample}});

  Runnable tick;
  tick.name = "tick";
  tick.trigger = RunnableTrigger::timing(milliseconds(10));
  tick.execution_time = [] { return microseconds(120); };
  tick.accesses.push_back({"out", "a", DataAccessKind::kImplicitWrite});
  tick.accesses.push_back({"out", "b", DataAccessKind::kImplicitWrite});
  model.add_type(
      {"Slow", {Port{"out", "IPair", PortDirection::kProvided}}, {tick}});

  Runnable filter;
  filter.name = "filter";
  filter.trigger = RunnableTrigger::data_received("in", "v");
  filter.wcet_bound = microseconds(300);
  filter.accesses.push_back({"in", "v", DataAccessKind::kExplicitRead});
  filter.accesses.push_back({"aux", "a", DataAccessKind::kImplicitRead});
  filter.accesses.push_back({"out", "v", DataAccessKind::kExplicitWrite});
  model.add_type({"Filter",
                  {Port{"in", "IVal", PortDirection::kRequired},
                   Port{"aux", "IPair", PortDirection::kRequired},
                   Port{"out", "IVal", PortDirection::kProvided}},
                  {filter}});

  Runnable act;
  act.name = "act";
  act.trigger = RunnableTrigger::data_received("in", "v");
  act.wcet_bound = microseconds(100);
  act.accesses.push_back({"in", "v", DataAccessKind::kExplicitRead});
  Runnable diag;
  diag.name = "diag";
  diag.trigger = RunnableTrigger::timing(milliseconds(20));
  diag.wcet_bound = microseconds(50);
  diag.accesses.push_back({"in", "v", DataAccessKind::kExplicitRead});
  model.add_type({"Actuator",
                  {Port{"in", "IVal", PortDirection::kRequired}},
                  {act, diag}});

  model.add_instance({"sensor", "Sensor"});
  model.add_instance({"slow", "Slow"});
  model.add_instance({"filter", "Filter"});
  model.add_instance({"act", "Actuator"});
  model.add_instance({"mon", "Actuator"});
  model.add_connector({"sensor", "out", "filter", "in"});
  model.add_connector({"slow", "out", "filter", "aux"});
  model.add_connector({"filter", "out", "act", "in"});
  model.add_connector({"sensor", "out", "mon", "in"});

  contracts::Contract c_sensor{.name = "C_Sensor"};
  c_sensor.guarantees.push_back(
      {.flow = "out.v",
       .range = {0, 500},
       .timing = {.period = milliseconds(5), .latency = milliseconds(2)}});
  model.bind_contract("sensor", c_sensor);
  contracts::Contract c_slow{.name = "C_Slow"};
  c_slow.guarantees.push_back(
      {.flow = "out", .timing = {.period = milliseconds(10)}});
  model.bind_contract("slow", c_slow);

  contracts::Contract c_filter{.name = "C_Filter"};
  c_filter.assumptions.push_back({.flow = "in.v",
                                  .range = {0, 500},
                                  .timing = {.latency = milliseconds(4)}});
  c_filter.guarantees.push_back({.flow = "out.v",
                                 .range = {0, 1000},
                                 .timing = {.latency = milliseconds(3)}});
  contracts::TimedAutomaton ta;
  const int idle = ta.add_location("idle");
  const int wait = ta.add_location("wait");
  const int c = ta.add_clock("c");
  ta.add_edge(idle, wait, "req", {}, {c});
  ta.add_edge(wait, idle, "rsp",
              {{c, contracts::TimedAutomaton::Constraint::Op::kLe, 5}});
  c_filter.behaviour = contracts::BehaviourSpec{
      .automaton = ta,
      .bindings = {{"in.v", "req"}, {"out", "rsp"}},
      .tick = milliseconds(1)};
  model.bind_contract("filter", c_filter);

  contracts::Contract c_act{.name = "C_Act"};
  c_act.assumptions.push_back({.flow = "in",
                               .range = {0, 1000},
                               .timing = {.latency = milliseconds(8)}});
  model.bind_contract("act", c_act);
  contracts::Contract c_mon{.name = "C_Mon"};
  c_mon.assumptions.push_back(
      {.flow = "in.v", .timing = {.latency = milliseconds(3)}});
  model.bind_contract("mon", c_mon);
  return model;
}

vfb::DeploymentPlan chain_plan(vfb::BusKind bus) {
  vfb::DeploymentPlan plan;
  plan.bus = bus;
  plan.instances["sensor"] = {.ecu = "ecu_a"};
  plan.instances["slow"] = {.ecu = "ecu_a"};
  plan.instances["filter"] = {.ecu = "ecu_b"};
  plan.instances["mon"] = {.ecu = "ecu_b"};
  plan.instances["act"] = {.ecu = "ecu_c"};
  return plan;
}

TEST(GoldenDiagnostics, CanChain) {
  expect_static(
      static_digests(chain_model(), chain_plan(vfb::BusKind::kCan)),
      0x69ac35b777c435ceull, 0x92b2ff97ffac54f1ull, 0x76842614f0c15363ull,
      0x6ff1219f26121fd7ull);
}

TEST(GoldenDiagnostics, FlexRayChain) {
  expect_static(
      static_digests(chain_model(), chain_plan(vfb::BusKind::kFlexRay)),
      0x0bea81692da2d741ull, 0x78343f82d39cbaa3ull, 0x366b60c59f80c675ull,
      0x3bfd55958908f41full);
}

/// One time-triggered ECU: a writer publishes one element explicitly from a
/// 5 ms and a 10 ms table entry and from an event task, a reader polls it
/// explicitly every 10 ms (inlining a synchronous server call) and reacts to
/// it in an event task — event tasks preempt table entries, so V4 reports
/// torn-read and lost-update hazards.
TEST(GoldenDiagnostics, TimeTriggeredRaces) {
  using vfb::DataAccessKind;
  using vfb::Port;
  using vfb::PortDirection;
  using vfb::Runnable;
  using vfb::RunnableTrigger;
  vfb::Composition model;
  vfb::PortInterface ival;
  ival.name = "IVal";
  ival.elements.push_back(vfb::DataElement{"v", 32, 0, false});
  model.add_interface(ival);
  vfb::PortInterface icalc;
  icalc.name = "ICalc";
  icalc.kind = vfb::PortInterface::Kind::kClientServer;
  icalc.operations.push_back({"scale", microseconds(300)});
  model.add_interface(icalc);

  Runnable fast;
  fast.name = "fast";
  fast.trigger = RunnableTrigger::timing(milliseconds(5));
  fast.wcet_bound = microseconds(500);
  fast.accesses.push_back({"out", "v", DataAccessKind::kExplicitWrite});
  Runnable slow = fast;
  slow.name = "slow";
  slow.trigger = RunnableTrigger::timing(milliseconds(10));
  slow.wcet_bound = microseconds(400);
  Runnable on_kick;
  on_kick.name = "on_kick";
  on_kick.trigger = RunnableTrigger::data_received("trig", "v");
  on_kick.wcet_bound = microseconds(100);
  on_kick.accesses.push_back({"trig", "v", DataAccessKind::kImplicitRead});
  on_kick.accesses.push_back({"out", "v", DataAccessKind::kExplicitWrite});
  model.add_type({"Writer",
                  {Port{"out", "IVal", PortDirection::kProvided},
                   Port{"trig", "IVal", PortDirection::kRequired}},
                  {fast, slow, on_kick}});

  Runnable poll;
  poll.name = "poll";
  poll.trigger = RunnableTrigger::timing(milliseconds(10));
  poll.wcet_bound = milliseconds(1);
  poll.accesses.push_back({"in", "v", DataAccessKind::kExplicitRead});
  poll.server_calls.push_back("calc.scale");
  Runnable react;
  react.name = "react";
  react.trigger = RunnableTrigger::data_received("in", "v");
  react.wcet_bound = microseconds(200);
  react.accesses.push_back({"in", "v", DataAccessKind::kExplicitRead});
  model.add_type({"Reader",
                  {Port{"in", "IVal", PortDirection::kRequired},
                   Port{"calc", "ICalc", PortDirection::kRequired}},
                  {poll, react}});

  model.add_type(
      {"Server", {Port{"calc", "ICalc", PortDirection::kProvided}}, {}});
  model.set_operation_handler("Server", "calc", "scale",
                              [](std::uint64_t x) { return 2 * x; });

  Runnable kick;
  kick.name = "kick";
  kick.trigger = RunnableTrigger::timing(milliseconds(20));
  kick.wcet_bound = microseconds(100);
  kick.accesses.push_back({"out", "v", DataAccessKind::kImplicitWrite});
  model.add_type(
      {"Kicker", {Port{"out", "IVal", PortDirection::kProvided}}, {kick}});

  model.add_instance({"w", "Writer"});
  model.add_instance({"r", "Reader"});
  model.add_instance({"srv", "Server"});
  model.add_instance({"k", "Kicker"});
  model.add_connector({"w", "out", "r", "in"});
  model.add_connector({"srv", "calc", "r", "calc"});
  model.add_connector({"k", "out", "w", "trig"});

  contracts::Contract c_w{.name = "C_W"};
  c_w.guarantees.push_back(
      {.flow = "out.v",
       .range = {0, 100},
       .timing = {.period = milliseconds(5), .latency = milliseconds(2)}});
  model.bind_contract("w", c_w);
  contracts::Contract c_r{.name = "C_R"};
  c_r.assumptions.push_back({.flow = "in.v",
                             .range = {0, 100},
                             .timing = {.latency = milliseconds(6)}});
  model.bind_contract("r", c_r);
  contracts::Contract c_k{.name = "C_K"};
  c_k.guarantees.push_back(
      {.flow = "out.v", .timing = {.period = milliseconds(20)}});
  model.bind_contract("k", c_k);

  vfb::DeploymentPlan plan;
  plan.scheduling = vfb::SchedulingPolicy::kTimeTriggered;
  for (const char* inst : {"w", "r", "srv", "k"}) {
    plan.instances[inst] = {.ecu = "tt_ecu"};
  }
  expect_static(static_digests(model, plan), 0x1a4bd4bc317dfb81ull,
                0x83b82c0730cfe56eull, 0x6f4999c1866c95f6ull,
                0x6ab282131ec53f6bull);
}

}  // namespace
