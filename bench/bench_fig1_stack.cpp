// Experiment E9 / Figure 1 — the AUTOSAR concept stack, realized.
//
// Figure 1 of the paper is qualitative (the layered architecture + new
// concepts). This bench (a) prints the inventory of the layers this
// repository implements against the figure, and (b) uses google-benchmark to
// measure the per-call cost of the realized services, demonstrating the
// stack is lightweight enough for per-runnable use.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_gbench_json.hpp"
#include "bsw/com.hpp"
#include "contracts/contract.hpp"
#include "contracts/network.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"
#include "vfb/system.hpp"

using namespace orte;

namespace {

void print_inventory() {
  std::puts("=== Fig. 1: AUTOSAR concepts -> OpenRTE modules ===");
  std::puts("  paper concept              module              realized as");
  std::puts("  -------------------------  ------------------  ----------------------------");
  std::puts("  VFB / RTE                  src/vfb             Composition, Rte, System");
  std::puts("  OS kernel                  src/os              Ecu, fixed-priority + TT + budgets");
  std::puts("  COM services               src/bsw/com         signals, I-PDUs, direct transmission");
  std::puts("  Mode management            src/bsw/mode        ModeMachine");
  std::puts("  Diagnostics                src/bsw/dem         Dem, DTC storage, aging");
  std::puts("  Memory services            -                   not modelled");
  std::puts("  Error handling             src/bsw + trace     DEM events, wdg alive supervision");
  std::puts("  Bus systems                src/can,flexray,ttp CAN 2.0A, FlexRay 2.1, TTP");
  std::puts("  NoC / MPSoC (sec. 4)       src/noc             TDMA NoC, CAN overlay");
  std::puts("  Rich components (sec. 3)   src/contracts       A/G contracts, dominance, TA");
  std::puts("  Runtime verification       src/rv              online monitors, health, exporters");
  std::puts("  Timing analysis (sec. 3)   src/analysis        RTA, CAN/FlexRay, e2e, TT synth");
  std::puts("  Config classes             typed C++ config    pre-build (ctor) / post-build (plan)");
  std::puts("");
}

struct RteFixture {
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::Composition comp;
  std::unique_ptr<vfb::System> sys;
  bsw::Com* com = nullptr;

  RteFixture() {
    trace.enable_retention(false);
    vfb::PortInterface ival;
    ival.name = "IVal";
    ival.elements.push_back(vfb::DataElement{"val", 32, 0, false});
    comp.add_interface(ival);
    vfb::Runnable produce;
    produce.name = "produce";
    produce.trigger = vfb::RunnableTrigger::timing(sim::milliseconds(10));
    produce.accesses.push_back(
        {"out", "val", vfb::DataAccessKind::kExplicitWrite});
    comp.add_type({"P",
                   {vfb::Port{"out", "IVal", vfb::PortDirection::kProvided}},
                   {produce}});
    vfb::Runnable consume;
    consume.name = "consume";
    consume.trigger = vfb::RunnableTrigger::timing(sim::milliseconds(10));
    consume.accesses.push_back(
        {"in", "val", vfb::DataAccessKind::kExplicitRead});
    comp.add_type({"C",
                   {vfb::Port{"in", "IVal", vfb::PortDirection::kRequired}},
                   {consume}});
    comp.add_instance({"p", "P"});
    comp.add_instance({"c", "C"});
    comp.add_connector({"p", "out", "c", "in"});
    vfb::DeploymentPlan plan;
    plan.instances["p"] = {.ecu = "e"};
    plan.instances["c"] = {.ecu = "e"};
    sys = std::make_unique<vfb::System>(kernel, trace, comp, plan);
  }
};

void BM_RteLocalWriteRead(benchmark::State& state) {
  RteFixture fx;
  auto& rte = fx.sys->rte("e");
  const std::string sender = vfb::Rte::key("p", "out", "val");
  const std::string receiver = vfb::Rte::key("c", "in", "val");
  std::uint64_t v = 0;
  for (auto _ : state) {
    rte.deliver(receiver, ++v);
    benchmark::DoNotOptimize(rte.peek(receiver));
  }
  (void)sender;
}
BENCHMARK(BM_RteLocalWriteRead);

void BM_ComPackUnpack(benchmark::State& state) {
  std::vector<std::uint8_t> payload(8, 0);
  std::uint64_t v = 0;
  for (auto _ : state) {
    bsw::pack_signal(payload, 5, 17, ++v & 0x1FFFF);
    benchmark::DoNotOptimize(bsw::unpack_signal(payload, 5, 17));
  }
}
BENCHMARK(BM_ComPackUnpack);

void BM_ContractSatisfies(benchmark::State& state) {
  contracts::FlowSpec g{.flow = "x",
                        .range = {0, 900},
                        .timing = {sim::milliseconds(10), sim::milliseconds(1),
                                   sim::milliseconds(4)}};
  contracts::FlowSpec a{.flow = "x",
                        .range = {0, 1000},
                        .timing = {sim::milliseconds(10), sim::milliseconds(1),
                                   sim::milliseconds(5)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(contracts::satisfies(g, a).ok);
  }
}
BENCHMARK(BM_ContractSatisfies);

void BM_KernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      kernel.schedule_at(i, [&count] { ++count; });
    }
    kernel.run_until(2000);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_KernelEventThroughput);

void BM_SimulatedEcuMillisecond(benchmark::State& state) {
  // Cost of simulating 1 ms of a 3-task ECU (events + dispatching).
  for (auto _ : state) {
    sim::Kernel kernel;
    sim::Trace trace;
    trace.enable_retention(false);
    os::Ecu ecu(kernel, trace, "e");
    ecu.add_task({.name = "a", .priority = 3, .period = sim::microseconds(100)})
        .set_body(sim::microseconds(20));
    ecu.add_task({.name = "b", .priority = 2, .period = sim::microseconds(200)})
        .set_body(sim::microseconds(50));
    ecu.add_task({.name = "c", .priority = 1, .period = sim::microseconds(500)})
        .set_body(sim::microseconds(100));
    ecu.start();
    kernel.run_until(sim::milliseconds(1));
    benchmark::DoNotOptimize(ecu.utilization());
  }
}
BENCHMARK(BM_SimulatedEcuMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_inventory();
  return bench::run_google_benchmarks_with_json(argc, argv, "fig1_stack");
}
