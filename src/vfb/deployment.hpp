// Deployment plan: the mapping side of the AUTOSAR methodology (§2).
//
// A DeploymentPlan assigns component instances to ECUs, picks the backbone
// bus and scheduling policy, and attaches a timing-isolation attribute
// (execution budgets). vfb::lower() turns Composition + plan into the
// deployment (tasks, frames, flows, monitors); vfb::System validates and
// instantiates that lowering, and validation::validate analyses the same
// one. Keeping the plan free of generator state lets the validator run
// without constructing any runtime object. The plan holds only what an
// integrator decides: the numbering of generated tasks and frames
// (priorities, CAN identifiers) is fixed by lower().
#pragma once

#include <map>
#include <string>

#include "can/can_bus.hpp"
#include "flexray/flexray_bus.hpp"
#include "sim/time.hpp"

namespace orte::vfb {

enum class BusKind { kCan, kFlexRay };

struct InstanceDeployment {
  std::string ecu;
  /// Timing-isolation attributes applied to every task of this instance: a
  /// job that runs past a positive budget is killed; 0 = no budget.
  sim::Duration budget = 0;
};

enum class SchedulingPolicy {
  kFixedPriority,  ///< Rate-monotonic priorities (the ET baseline).
  /// Periodic tasks dispatched from a synthesized time-triggered schedule
  /// table (analysis::synthesize_schedule over the runnables' WCET bounds):
  /// contention-free by construction — the §1 "timing isolation via careful
  /// planning and tool support". Data-received tasks remain event-driven.
  kTimeTriggered,
};

struct DeploymentPlan {
  std::map<std::string, InstanceDeployment> instances;
  BusKind bus = BusKind::kCan;
  SchedulingPolicy scheduling = SchedulingPolicy::kFixedPriority;
  can::CanConfig can;
  flexray::FlexRayConfig flexray;
  /// Generate the runtime-verification layer (rv::MonitorRegistry): deadline
  /// monitors for every generated task plus arrival/latency/automaton
  /// monitors compiled from the model's bound contracts. Monitors are pure
  /// observers (zero simulated-time cost); opt out to shed the host-side
  /// dispatch overhead on monitoring-free measurement runs.
  bool runtime_verification = true;
  /// Bind bsw::WatchdogManager alive supervision from contract periods: one
  /// watchdog per ECU hosting periodic guarantees, each resolved sender key
  /// supervised with a cycle of twice its largest contracted period, the
  /// checkpoint fed by the key's `rte.write` records (quarantined-but-alive
  /// producers still checkpoint through `rte.quarantine_drop`). Expiry is
  /// reported into the rv registry as an "alive" violation — the fail-
  /// silence detector the data-flow monitor planes cannot provide (a dead
  /// producer emits nothing; see validation rules V13/V15).
  bool alive_supervision = false;
  /// Mode the rv layer requests when the last contract DTC ages out after a
  /// degraded-mode escalation (the closed §2 loop: violate → degrade → heal
  /// → recover). Empty = return to whatever mode was current when the
  /// escalation fired. The transition back (e.g. DEGRADED -> RUN) must be
  /// declared on the mode machine handed to escalate_to().
  std::string recovery_mode;
};

}  // namespace orte::vfb
