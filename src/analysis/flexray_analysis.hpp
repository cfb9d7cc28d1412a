// FlexRay timing analysis: latency bounds for signals in the static (TDMA)
// segment.
//
// Static segment: a signal in slot s is delivered at the end of slot s every
// cycle. A write that *just* misses the slot's transmission start waits one
// full cycle, so:
//   best  = time from slot start to slot end          = slot_len
//   worst = cycle_len + slot_len
//   jitter of the delivery *instants* = 0 (strictly periodic) — the
//   paper's timing-isolation claim in its purest form.
#pragma once

#include "flexray/flexray_bus.hpp"
#include "sim/time.hpp"

namespace orte::analysis {

using sim::Duration;

struct FlexRayStaticLatency {
  Duration best = 0;
  Duration worst = 0;
  /// Sender-side waiting jitter (worst - best); delivery instants themselves
  /// are periodic with zero jitter.
  Duration write_to_delivery_jitter = 0;
};

/// Latency bounds from an application write to delivery in any static slot
/// under the given bus configuration: every static slot has the same width,
/// so a slot's position only shifts the phase, not the bounds.
FlexRayStaticLatency flexray_static_latency(const flexray::FlexRayConfig& cfg);

}  // namespace orte::analysis
