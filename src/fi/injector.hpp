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

/// Install every fault onto `sys`. First, validation::check_faults admits
/// the faults against sys.lowering() and throws std::invalid_argument for
/// one that names nothing the lowering generated (it could never fire and
/// would silently score `missed`) or has a parameter that could not act.
/// Stochastic decisions (probability < 1, execution jitter) draw from
/// per-fault streams forked off `root`, so two scenarios with the same
/// (faults, root) replay bit-identically no matter what else runs in the
/// process.
void install_faults(sim::Kernel& kernel, vfb::System& sys,
                    const std::vector<Fault>& faults, const sim::Rng& root);

}  // namespace orte::fi
