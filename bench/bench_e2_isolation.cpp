// Experiment E2 / Table 2 — Timing isolation under supplier faults (§1, §2).
//
// Claim: without isolation, a WCET-overrunning supplier task breaks the
// deadlines of other suppliers' tasks; with resource reservation (per-job
// budgets or CPU partitions) the fault is confined to the faulty supplier,
// at a bounded overhead.
//
// Workload: one ECU, three suppliers (A: 5ms/0.8ms, B: 10ms/2ms, C:
// 10ms/3ms). B overruns its contract by a swept factor during the whole
// run. Policies: none (baseline), per-job budget (kill), partition
// (throttle).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

using namespace orte;
using sim::milliseconds;
using sim::microseconds;

namespace {

enum class Policy { kNone, kBudgetKill, kPartition };

const char* name_of(Policy p) {
  switch (p) {
    case Policy::kNone: return "none";
    case Policy::kBudgetKill: return "budget-kill";
    case Policy::kPartition: return "partition";
  }
  return "?";
}

struct Row {
  std::uint64_t victim_misses = 0;
  std::uint64_t aggressor_sanctions = 0;  // kills or throttles
  double victim_worst_ms = 0;
  double cpu_util = 0;
};

Row run_case(Policy policy, double factor) {
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  os::Ecu ecu(kernel, trace, "host");

  int partition = -1;
  if (policy == Policy::kPartition) {
    partition = ecu.add_partition({.name = "supplierB",
                                   .budget = milliseconds(2),
                                   .period = milliseconds(10)});
  }

  auto& a = ecu.add_task({.name = "A", .priority = 3,
                          .period = milliseconds(5),
                          .relative_deadline = milliseconds(5)});
  a.set_body(microseconds(800));

  os::TaskConfig bcfg{.name = "B", .priority = 2, .period = milliseconds(10),
                      .relative_deadline = milliseconds(10)};
  if (policy == Policy::kBudgetKill) bcfg.budget = milliseconds(2);
  if (policy == Policy::kPartition) bcfg.partition = partition;
  auto& b = ecu.add_task(bcfg);
  b.set_body([factor] {
    return static_cast<sim::Duration>(milliseconds(2) * factor);
  });

  auto& c = ecu.add_task({.name = "C", .priority = 1,
                          .period = milliseconds(10),
                          .relative_deadline = milliseconds(10)});
  c.set_body(milliseconds(3));

  ecu.start();
  kernel.run_until(sim::seconds(10));

  Row row;
  // Victim damage: missed deadlines (detected at the deadline, so starved
  // jobs count) plus activations dropped because the previous job lingered.
  const auto damage = [](const os::Task& t) {
    return t.deadline_misses() + t.activations_lost();
  };
  row.victim_misses = damage(a) + damage(c);
  row.aggressor_sanctions =
      b.jobs_killed() +
      (policy == Policy::kPartition ? ecu.partition_throttles(partition) : 0);
  // A fully starved victim never completes: report -1 ("never finishes").
  row.victim_worst_ms =
      c.response_times().empty() ? -1.0 : c.response_times().max();
  row.cpu_util = ecu.utilization();
  return row;
}

}  // namespace

int main() {
  bench::JsonReport report("e2_isolation");
  bench::print_title(
      "E2 / Table 2: victim damage vs overrun factor, per isolation policy");
  bench::print_row({"policy / overrun x", "victim misses", "sanctions",
                    "victim worst ms", "cpu util %"});
  bench::print_rule(5);
  for (Policy p : {Policy::kNone, Policy::kBudgetKill, Policy::kPartition}) {
    for (double factor : {1.0, 1.5, 2.0, 4.0, 8.0}) {
      const auto r = run_case(p, factor);
      bench::print_row({std::string(name_of(p)) + " / x" +
                            bench::fmt(factor, 1),
                        bench::fmt_u(r.victim_misses),
                        bench::fmt_u(r.aggressor_sanctions),
                        bench::fmt(r.victim_worst_ms, 3),
                        bench::fmt(100 * r.cpu_util, 1)});
      report.row("e2_victim_damage")
          .str("policy", name_of(p))
          .num("overrun_factor", factor)
          .num_u("victim_misses", r.victim_misses)
          .num_u("sanctions", r.aggressor_sanctions)
          .num("victim_worst_ms", r.victim_worst_ms)
          .num("cpu_util_pct", 100 * r.cpu_util);
    }
    bench::print_rule(5);
  }
  std::puts(
      "Expected shape (paper S1/S2): policy 'none' accumulates victim deadline\n"
      "misses once the overrun saturates the CPU; both reservation policies\n"
      "keep victim misses at exactly 0 for every factor, sanctioning only the\n"
      "faulty supplier. The overhead of reservation is visible as the CPU\n"
      "utilization difference at factor 1.0 (none).");
  return 0;
}
