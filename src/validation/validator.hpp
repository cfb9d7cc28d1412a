// Static model validator: whole-model analysis of a Composition, its bound
// contracts and its DeploymentPlan *before* any runtime object is
// constructed.
//
// The paper's reliability argument (§2–§3) rests on design-time checks: the
// AUTOSAR methodology validates the system configuration "prior to
// implementation", and SPEEDS-style rich components add contract
// compatibility on top. This pass reports every violation it finds as a
// structured Diagnostic instead of throwing on the first one. The contracts
// it checks are the ones Composition::bind_contract binds — the same ones
// vfb::System compiles into monitors.
//
// Rule inventory (IDs are stable; DESIGN.md carries the full table):
//  V1 dangling references  — names in instances, ports, accesses, triggers,
//                            connectors, server calls and deployments that
//                            do not resolve.
//  V2 connector typing     — provided->required direction, interface
//                            agreement (kind / element set named in the
//                            mismatch message), single feed per required
//                            port, access-direction rules, same-ECU
//                            client-server connectors, element widths
//                            outside a COM signal's 1..64 bits.
//  V3 connectivity         — unconnected required ports that are read,
//                            never-written / never-read elements, server
//                            calls on unconnected ports.
//  V4 data races           — explicit read/write accesses to the same
//                            element from runnables mapped to
//                            different-priority preemptive tasks on one ECU
//                            (torn-read / lost-update hazards); implicit
//                            (buffered) accesses pass by construction.
//  V5 timing sanity        — zero-period timing triggers, wcet_bound >=
//                            period, data-received triggers on provided
//                            ports, budgets below a runnable's WCET, per-ECU
//                            task-count limit, bus values the runtime cannot
//                            take (bitrate, static slots, negative FlexRay
//                            minislot or idle time, CAN error rate outside
//                            [0, 1)).
//  V6 call cycles          — client-server call cycles over server_calls
//                            (instance-level DFS; the cycle is printed).
//  V7 contract mismatch    — a connector whose bound contracts fail the
//                            contracts:: compatibility predicate (source
//                            guarantee must imply sink assumption).
#pragma once

#include "validation/diagnostics.hpp"
#include "validation/flow_analysis.hpp"
#include "vfb/deployment.hpp"
#include "vfb/lowering.hpp"
#include "vfb/model.hpp"

namespace orte::validation {

/// Run every rule over `model` deployed under `plan`: lowers the model once
/// and calls validate_lowering on that lowering; never throws on model
/// defects.
[[nodiscard]] Diagnostics validate(const vfb::Composition& model,
                                   const vfb::DeploymentPlan& plan);

/// The rules of validate(model, plan) over a lowering the caller already
/// holds: `lowering` is vfb::lower(model, plan) and `chains` is
/// analyze_chains(lowering, model.bound_contracts()). vfb::System passes the
/// lowering it instantiates, so it builds exactly what it validated.
[[nodiscard]] Diagnostics validate_lowering(const vfb::Composition& model,
                                            const vfb::DeploymentPlan& plan,
                                            const vfb::Lowering& lowering,
                                            const ChainAnalysis& chains);

}  // namespace orte::validation
