// Declarative fault catalog for the injection campaigns (experiment E9b).
//
// A fi::Fault names WHAT breaks (kind), WHERE (target, semantics per kind),
// WHEN (onset window [from, until)) and HOW HARD (probability / magnitude /
// value / delay). Faults are plain data: the injector compiles them onto a
// built vfb::System through the hook points each layer exposes (net fault
// hooks, the RTE write interceptor, os::Task::transform_durations), and the
// campaign runner replays the same Fault under per-scenario RNG streams —
// the declarative form is what makes a grid of scenarios enumerable and a
// coverage matrix (fault class x detector) meaningful.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "vfb/deployment.hpp"

namespace orte::fi {

/// The injectable fault kinds, grouped into the four classes the coverage
/// matrix scores. Target semantics per kind:
///  * frame faults (drop/corrupt/delay): a frame (= I-PDU) name or a prefix
///    of it ending at a '|' ("pdu|pedal_ecu" hits "pdu|pedal_ecu|5000000|0"),
///    "" = every frame on the bus,
///  * babbling idiot: the bus itself (target unused); a rogue node is
///    attached that floods high-priority frames,
///  * value faults (corrupt/stuck-at): a written RTE sender key
///    ("instance.port.element") or a prefix of it ending at a '.', such as
///    its instance name,
///  * task faults (crash/overrun/jitter): a component instance owning a
///    generated task,
///  * clock drift: an ECU name (all frames sourced by its bus node drift).
/// vfb::key_matches is the prefix rule. validation::check_faults rejects
/// with std::invalid_argument a target that names nothing of its kind in
/// the lowering, and a parameter that would throw inside a job or never act:
/// a jitter magnitude outside [0, 1], an overrun magnitude below 1, a frame
/// delay on a FlexRay bus. fi::install_faults, fi::Campaign::run and
/// validation::analyze_detectability all call it, so the injector and
/// V13–V15 admit the same faults.
enum class FaultKind {
  // -- bus plane (class kBus) --
  kFrameDrop,      ///< Lose matching frames at the delivery point.
  kFrameCorrupt,   ///< XOR every payload byte with `value`'s low byte.
  kFrameDelay,     ///< Add `delay` ns (CAN only; TDMA buses pin timing).
  kBabblingIdiot,  ///< Rogue node floods top-priority frames every `delay`.
  // -- RTE value plane (class kRteValue) --
  kValueCorrupt,  ///< XOR the written value with `value` (default all-ones).
  kStuckAt,       ///< Every matching write publishes `value` instead.
  // -- task timing plane (class kTiming) --
  kTaskCrash,        ///< Fail-silent from `from` on: zero execution time and
                     ///< swallowed port writes (until is ignored: crashes
                     ///< are permanent, like isolation::crashing_wcet).
  kWcetOverrun,      ///< Execution time x `magnitude` inside the window.
  kExecutionJitter,  ///< Execution time scaled by U[1-magnitude, 1] inside
                     ///< the window (magnitude in [0, 1]).
  // -- clock plane (class kClock) --
  kClockDrift,  ///< The ECU's clock drifts `magnitude` ppm from `from` on:
                ///< its CAN frames arrive late by the accumulated offset;
                ///< on TDMA buses its frames are lost once the offset
                ///< exceeds half a static slot (desynchronization).
};

/// Row axis of the coverage matrix.
enum class FaultClass { kBus, kRteValue, kTiming, kClock };

struct Fault {
  FaultKind kind = FaultKind::kFrameDrop;
  std::string target;
  /// Onset window [from, until). A `from` of 0 means "at the campaign's
  /// configured onset" when the fault runs under a fi::Campaign.
  sim::Time from = 0;
  sim::Time until = sim::kForever;
  /// Per-opportunity firing probability (frame faults, value faults).
  double probability = 1.0;
  /// Kind-specific intensity: overrun factor, jitter fraction, drift ppm.
  double magnitude = 2.0;
  /// Kind-specific value: stuck-at value, corruption XOR mask (0 = all-ones
  /// for value corruption, low byte 0xFF for frame corruption), babble
  /// frame id (0 = top priority).
  std::uint64_t value = 0;
  /// kFrameDelay: added latency; kBabblingIdiot: flood period (0 = 100 us).
  sim::Duration delay = 0;

  /// The fault's one name, in campaign reports and V13/V14 subjects alike:
  /// "wcet_overrun:pedal", or just the kind for an empty target.
  [[nodiscard]] std::string label() const;
};

[[nodiscard]] constexpr FaultClass fault_class(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFrameDrop:
    case FaultKind::kFrameCorrupt:
    case FaultKind::kFrameDelay:
    case FaultKind::kBabblingIdiot:
      return FaultClass::kBus;
    case FaultKind::kValueCorrupt:
    case FaultKind::kStuckAt:
      return FaultClass::kRteValue;
    case FaultKind::kTaskCrash:
    case FaultKind::kWcetOverrun:
    case FaultKind::kExecutionJitter:
      return FaultClass::kTiming;
    case FaultKind::kClockDrift:
      return FaultClass::kClock;
  }
  return FaultClass::kBus;  // unreachable
}

/// The set of instances a fault is allowed to disturb. Bus-wide faults set
/// `everything` (any blame is in-domain -> contained if detected); a
/// babbling idiot has an EMPTY domain (the rogue node is not a component,
/// so any disturbance of real components is a leak).
struct Domain {
  bool everything = false;
  std::set<std::string> instances;

  [[nodiscard]] bool contains(const std::string& instance) const {
    return everything || instances.count(instance) > 0;
  }
};

/// Containment domain of `fault` deployed under `plan`: the one rule
/// fi::Campaign scores with and the detectability analysis (V13–V15)
/// predicts with. This header is inline throughout, so validation needs no
/// link dependency on the fi library.
[[nodiscard]] inline Domain domain_of(const Fault& fault,
                                      const vfb::DeploymentPlan& plan) {
  Domain domain;
  switch (fault.kind) {
    case FaultKind::kFrameDrop:
    case FaultKind::kFrameCorrupt:
    case FaultKind::kFrameDelay:
      // A bus fault may disturb any deployed component; detection anywhere
      // is in-domain (the fault's blast radius IS the shared medium).
      domain.everything = true;
      break;
    case FaultKind::kBabblingIdiot:
      // The rogue node is not a component: every disturbance of real
      // components is a leak. (On TDMA buses the static schedule contains
      // the babbler structurally — the fault then scores missed.)
      break;
    case FaultKind::kValueCorrupt:
    case FaultKind::kStuckAt:
      domain.instances.insert(fault.target.substr(0, fault.target.find('.')));
      break;
    case FaultKind::kTaskCrash:
    case FaultKind::kWcetOverrun:
    case FaultKind::kExecutionJitter:
      domain.instances.insert(fault.target);
      break;
    case FaultKind::kClockDrift:
      // Everything on the drifting ECU shares its broken clock.
      for (const auto& [instance, dep] : plan.instances) {
        if (dep.ecu == fault.target) domain.instances.insert(instance);
      }
      break;
  }
  return domain;
}

[[nodiscard]] constexpr std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFrameDrop:
      return "frame_drop";
    case FaultKind::kFrameCorrupt:
      return "frame_corrupt";
    case FaultKind::kFrameDelay:
      return "frame_delay";
    case FaultKind::kBabblingIdiot:
      return "babbling_idiot";
    case FaultKind::kValueCorrupt:
      return "value_corrupt";
    case FaultKind::kStuckAt:
      return "stuck_at";
    case FaultKind::kTaskCrash:
      return "task_crash";
    case FaultKind::kWcetOverrun:
      return "wcet_overrun";
    case FaultKind::kExecutionJitter:
      return "execution_jitter";
    case FaultKind::kClockDrift:
      return "clock_drift";
  }
  return "unknown";
}

[[nodiscard]] constexpr std::string_view to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kBus:
      return "bus";
    case FaultClass::kRteValue:
      return "rte_value";
    case FaultClass::kTiming:
      return "timing";
    case FaultClass::kClock:
      return "clock";
  }
  return "unknown";
}

inline std::string Fault::label() const {
  std::string out{to_string(kind)};
  if (!target.empty()) {
    out.push_back(':');
    out += target;
  }
  return out;
}

}  // namespace orte::fi
