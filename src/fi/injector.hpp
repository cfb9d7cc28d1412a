// Fault installation: compiles declarative fi::Faults onto a generated
// vfb::System through the injection hook points each layer exposes:
//  * bus faults    -> net::FaultHook on the CAN/FlexRay bus (frame drop,
//                     payload corruption, delay, clock-drift arrival skew)
//                     plus an extra rogue controller for the babbling idiot,
//  * value faults  -> the RTE write interceptor (corrupt/stuck-at/swallow),
//  * task faults   -> os::Task::transform_durations, delegating to the
//                     isolation-layer WCET fault helpers so the fi layer and
//                     the standalone isolation experiments share one timing
//                     fault semantics (overrunning/jittery/crashing_wcet).
//
// Install between System construction and the first run_for(): FlexRay
// forbids attaching nodes after start(), and duration transforms must be in
// place before the first activation.
#pragma once

#include <vector>

#include "fi/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "vfb/system.hpp"

namespace orte::fi {

/// Throw std::invalid_argument for the first fault whose target names
/// nothing the system's lowering generated (see fi::FaultKind) — such a fault
/// could never fire and would silently score `missed`; the message names the
/// target and lists the valid names of its kind. Once its target resolves,
/// a fault is also rejected for a parameter that would throw inside a job
/// (jitter magnitude outside [0, 1], overrun magnitude below 1) or could
/// never act (a frame delay on FlexRay, whose static slots pin timing).
void check_targets(const vfb::System& sys, const std::vector<Fault>& faults);

/// Install every fault onto `sys` (after check_targets). Stochastic
/// decisions (probability < 1, execution jitter) draw from per-fault streams
/// forked off `root`, so two scenarios with the same (faults, root) replay
/// bit-identically no matter what else runs in the process.
void install_faults(sim::Kernel& kernel, vfb::System& sys,
                    const std::vector<Fault>& faults, const sim::Rng& root);

}  // namespace orte::fi
