// Golden whole-system digests: each workload below runs the full stack for a
// fixed horizon with trace retention on, and every retained record
// (when, category, subject, value, detail) is folded into an FNV-1a digest.
// The digest and the record count pin the simulated behaviour bit for bit,
// so a refactor or optimization of any layer (kernel, OS scheduler, RTE,
// COM/bus, rv, fi hooks) that changes one record, its order, or the record
// count fails here. A deliberate behaviour change must regenerate the pins
// and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
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

Digest run_pipelines(int pipelines, bool rv_on, bool implicit,
                     sim::Duration horizon) {
  const vfb::Composition model = pipeline_model(pipelines, implicit);
  vfb::DeploymentPlan plan;
  for (int i = 0; i < pipelines; ++i) {
    const std::string ecu = "ecu" + std::to_string(i / kPipelinesPerEcu);
    plan.instances["sensor" + std::to_string(i)] = {.ecu = ecu};
    plan.instances["filter" + std::to_string(i)] = {.ecu = ecu};
  }
  plan.runtime_verification = rv_on;
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, model, plan);
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

TEST(GoldenDigest, Pipelines256OnFourEcus) {
  expect_digest(run_pipelines(256, true, false, milliseconds(50)),
                0x3e97cc0a2e765ccfull, 128260);
}

// --- brake_by_wire, wired the way the fi campaign wires a scenario ------------

/// One campaign-style scenario: DEM, degraded/recovery modes, escalation and
/// the rv heartbeat, with `faults` installed through fi::install_faults.
Digest run_brake_by_wire(const std::vector<fi::Fault>& faults,
                         bool alive_supervision) {
  const fi::CampaignConfig cfg;
  fi::ModelBundle bundle = fi::workloads::brake_by_wire(alive_supervision);
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
  return digest_of(trace);
}

TEST(GoldenDigest, BrakeByWireFaultFree) {
  expect_digest(run_brake_by_wire({}, false), 0xdedf4b4d8bd1e105ull, 8609);
}

TEST(GoldenDigest, BrakeByWireStuckAt) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kStuckAt,
                                    .target = "pedal.out.pos",
                                    .from = milliseconds(200),
                                    .value = 4000}},
                                  false),
                0x33f02671b2735e2dull, 4474);
}

TEST(GoldenDigest, BrakeByWireTaskCrashSupervised) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kTaskCrash,
                                    .target = "pedal",
                                    .from = milliseconds(200)}},
                                  true),
                0xec8d41c652316d9cull, 4293);
}

TEST(GoldenDigest, BrakeByWireFrameCorrupt) {
  expect_digest(run_brake_by_wire({{.kind = fi::FaultKind::kFrameCorrupt,
                                    .from = milliseconds(200),
                                    .probability = 0.6,
                                    .value = 0x40}},
                                  false),
                0x6373cf5a0fefe1d5ull, 4578);
}

// --- Bare OS scheduler --------------------------------------------------------

/// One ECU exercising every scheduling rule at once: a budgeted partition
/// that exhausts and replenishes, an immediate-ceiling resource shared
/// across priorities, equal-priority periodic and event tasks (the
/// incumbent and registration-order tie rules, also between a job raised
/// to a ceiling and a task at that base priority), queued event
/// activations and a deadline miss.
TEST(GoldenDigest, BareEcuPartitionCeilingEqualPriorities) {
  sim::Kernel kernel;
  sim::Trace trace;
  os::Ecu ecu(kernel, trace, "ecu0");
  const int part = ecu.add_partition(
      {.name = "p0", .budget = milliseconds(3), .period = milliseconds(10)});
  const int res = ecu.add_resource("shared");

  os::Task& event_b = ecu.add_task(
      {.name = "event_b", .priority = 2, .max_pending_activations = 2});
  event_b.set_body(microseconds(700));
  os::Task& a = ecu.add_task({.name = "a", .priority = 2,
                              .period = milliseconds(10), .partition = part});
  a.add_segment({.duration = [] { return milliseconds(1); }, .resource = res});
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
  hi.add_segment({.duration = [] { return microseconds(800); },
                  .resource = res});
  os::Task& lo = ecu.add_task({.name = "lo", .priority = 1,
                               .period = milliseconds(5),
                               .relative_deadline = milliseconds(4)});
  lo.add_segment({.duration = [] { return milliseconds(1); },
                  .after = [&ecu, &event_a, &event_b] {
                    ecu.activate(event_b);
                    ecu.activate(event_a);
                    ecu.activate(event_a);
                  }});
  // Preempts `a` inside its ceiling segment while `hi` is released, so `a`
  // (raised to the ceiling) and `hi` then tie at priority 3 with neither
  // running: the lower registration index must win.
  os::Task& top = ecu.add_task({.name = "top", .priority = 4,
                                .period = milliseconds(20),
                                .offset = microseconds(200)});
  top.set_body(microseconds(400));
  ecu.start();
  kernel.run_until(milliseconds(200));

  EXPECT_GT(ecu.partition_throttles(part), 0u);
  EXPECT_GT(lo.deadline_misses(), 0u);
  expect_digest(digest_of(trace), 0x9050358352e7638full, 775);
}

}  // namespace
