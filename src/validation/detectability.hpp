// Static fault-detectability & fail-silence analysis (rules V13–V15).
//
// The fi layer measures fault coverage dynamically (E9b): inject a fault,
// run the system, score whether any rv monitor fired and whether every
// reaction blamed the fault's containment domain. This pass computes the
// same verdicts *statically*, before any simulation: for each fi::Fault
// plane it derives the set of trace observables the fault perturbs (frame
// delivery, `rte.write`/`rte.deliver` values, task timing, clock skew),
// propagates value perturbations with validation::reach (V12's closure), and
// intersects the result with the lowered monitor inventory — the one
// vfb::System compiles — including the instance each monitor blames:
//
//  V13 undetectable fault class — the fault perturbs observables but no
//      compiled monitor watches any of them (the canonical instance: crash
//      of a producer with no alive supervision — a dead component emits
//      nothing, and every data-flow monitor judges only what it sees).
//  V14 containment gap          — the fault is detectable, but every
//      observing monitor blames an instance outside the fault's containment
//      domain, so a campaign can never score it `contained` (e.g. a
//      babbling idiot on CAN: the rogue node is not a component, every
//      latency blame lands on a victim).
//  V15 alive-supervision coverage — a periodic guarantee implies a
//      heartbeat, but the plan binds no bsw::WatchdogManager alive
//      supervision (DeploymentPlan::alive_supervision), leaving the
//      fail-silent crash of the producer invisible (the V13 fix, one model
//      flag away).
//
// All three are warnings: the model still generates and runs; what it
// cannot do is *argue fail-silence* for the flagged fault class. The
// verdicts are the static half of a cross-check asserted in tests and
// bench_e13: predicted-undetectable faults must score `missed` in the E9b
// campaign, predicted-detectable ones must be detected. Both halves speak
// one fault vocabulary: a fault is named by fi::Fault::label(), its frame
// and value targets resolve by vfb::key_matches, and check_faults below
// admits it for the injector and this analysis alike.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "contracts/contract.hpp"
#include "fi/fault.hpp"
#include "validation/diagnostics.hpp"
#include "vfb/deployment.hpp"
#include "vfb/lowering.hpp"
#include "vfb/model.hpp"

namespace orte::validation {

/// One compiled runtime-monitor plane, reduced to what detectability needs:
/// the observable it watches and the instance its violations blame. Derived
/// from the lowered monitor inventory (vfb::Lowering::monitors), so the
/// static blame is the runtime blame.
struct MonitorPlane {
  /// The inventory kind; it fixes what the plane senses: write timing
  /// (arrival), task timing (deadline), delivery of an edge (latency), the
  /// written or delivered value (range-write, range-deliver), write values
  /// and order (automaton), write absence (alive). Rendered by
  /// vfb::to_string.
  using Kind = vfb::MonitorEntry::Kind;
  Kind kind = Kind::kArrival;
  /// Rendered observable the plane watches, e.g. "write-timing pedal.out.pos"
  /// or "delivery pedal.out.pos -> wheel_fl".
  std::string observable;
  /// Instance a violation of this plane blames (the monitor spec's blame,
  /// which rv::Violation::blame carries at run time).
  std::string blame;
};

/// Static verdict over one fault plane (named by fault.label(), as the
/// campaign names its scenarios).
struct FaultVerdict {
  fi::Fault fault;
  /// The fault perturbs at least one observable. False = structurally inert
  /// (a babbling idiot on a TDMA bus): the campaign scores it missed, but no
  /// V13 fires — there is nothing a monitor *could* have seen.
  bool perturbs = false;
  bool detectable = false;       ///< >= 1 monitor observes a perturbation.
  /// Detectable, but no observing monitor blames inside the fault's domain:
  /// detection can never score `contained` (V14).
  bool containment_gap = false;
  /// Detectable and *every* observing monitor blames inside the domain
  /// (fi::domain_of, the rule the campaign scores with) — the static
  /// prediction of the campaign's `contained` outcome.
  bool contained = false;
  std::vector<MonitorPlane> observers;  ///< Planes that see the fault.
};

struct DetectabilityAnalysis {
  /// The full compiled monitor inventory (every plane, observer or not).
  std::vector<MonitorPlane> monitors;
  std::vector<FaultVerdict> verdicts;  ///< One per input fault, in order.
};

/// The one fault admission check: throw std::invalid_argument for the first
/// fault whose target names nothing of its kind in `lowering` (see
/// fi::FaultKind; the message names the target and lists the valid names),
/// or, once its target resolves, whose parameter would throw inside a job
/// (jitter magnitude outside [0, 1], overrun magnitude below 1) or could
/// never act (a frame delay on FlexRay, whose static slots pin timing).
/// fi::install_faults, fi::Campaign::run and analyze_detectability call it,
/// so the injector and the static analysis admit exactly the same faults.
void check_faults(const vfb::Lowering& lowering,
                  const std::vector<fi::Fault>& faults);

/// Run the propagation analysis for an explicit fault list over the
/// lowering of `model` (with its bound contracts) under `plan` — the
/// cross-check surface: bench_e13 and test_fi feed the standard campaign
/// grid through this and compare each verdict against the measured outcome.
/// Throws what check_faults throws for a fault the injector would reject.
[[nodiscard]] DetectabilityAnalysis analyze_detectability(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const std::vector<fi::Fault>& faults);

/// V13–V15 over a canonical fault inventory derived from the model itself
/// (one representative per fault plane the deployment can express: frame
/// faults and a babbler when cross-ECU edges exist, clock drift per
/// frame-sourcing ECU, crash/overrun per guaranteeing producer, stuck-at
/// per constrained guarantee flow). Requires a deployment plan; silent when
/// the plan disables runtime_verification (V10's jurisdiction).
void check_detectability(
    const vfb::Lowering& lowering, const vfb::DeploymentPlan& plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

}  // namespace orte::validation
