// Whole-program contract dataflow analysis: the transitive half of the
// design-time validation story (§2–§3).
//
// V7 checks each connector pairwise — a source guarantee against the
// adjacent sink assumption. These passes reason about whole chains instead:
//
//  V8  transitive flow ranges  — abstract interpretation of FlowSpec value
//                                intervals through connectors and runnable
//                                read->write relays: empty intersections and
//                                unconstrained transitive sources that no
//                                pairwise check can see.
//  V9  end-to-end deadlines    — the holistic fixpoint (analysis::
//                                HolisticModel) over the lowered tasks and
//                                dataflow edges, including data-received
//                                event tasks and FlexRay static-slot hops;
//                                each latency assumption is compared against
//                                the computed bound.
//  V10 monitor coverage        — which contract obligations the rv layer
//                                would actually watch at runtime (the
//                                lowered flow resolution); obligations that
//                                resolve to no monitor are certified by
//                                nothing.
//  V11 budget consistency      — generated per-instance load and per-ECU /
//                                per-bus sums against the contracts'
//                                vertical ResourceSpec assumptions.
//  V12 dead flows              — liveness on the V8 dataflow graph: reads
//                                whose transitive source never produces
//                                fresh data, and writes whose values
//                                dead-end in relay chains (both only where
//                                the local rule V3 stays silent).
//
// Every pass reads one vfb::Lowering of the model, the same derivation
// vfb::System instantiates. vfb::System runs analyze_chains() once on its
// lowering: the one result feeds V9 and is recorded next to each
// LatencyMonitor threshold — the bound >= observed cross-check that
// certifies the dynamic layer against the static one.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "contracts/contract.hpp"
#include "validation/diagnostics.hpp"
#include "vfb/deployment.hpp"
#include "vfb/lowering.hpp"
#include "vfb/model.hpp"

namespace orte::validation {

/// One statically bounded end-to-end obligation: a latency assumption of a
/// bound contract, resolved through the feeding connector to its producer
/// and consuming event task, with the holistic response-time bound of that
/// chain (measured from the chain head's release — an over-approximation of
/// what the matching rv::LatencyMonitor observes from the producer's write).
struct ChainBound {
  std::string contract;   ///< Contract carrying the latency assumption.
  std::string instance;   ///< Consuming instance the contract is bound to.
  std::string flow;       ///< Assumption flow name ("port" or "port.element").
  std::string sink_task;  ///< Generated task bounding the chain tail; empty =
                          ///< no data-received runnable (chain ends at bus
                          ///< delivery).
  sim::Duration deadline = 0;  ///< The contracted latency obligation.
  sim::Duration bound = 0;     ///< Holistic bound; valid when computable.
  bool computable = false;     ///< False: chain unresolvable or the fixpoint
                               ///< found the model unschedulable/divergent.
};

/// Result of folding the generated deployment into the holistic fixpoint.
struct ChainAnalysis {
  bool schedulable = false;  ///< Holistic verdict over tasks and messages.
  int iterations = 0;        ///< Fixpoint iterations until convergence.
  std::vector<ChainBound> bounds;  ///< One entry per latency assumption.
};

/// Fold the lowered tasks and dataflow edges into the holistic fixpoint: one
/// bus message per cross-ECU edge and consumer, one local dependency per
/// same-ECU activation. Conservative where it simplifies: signals are
/// analyzed unpacked, one 8-byte message per edge, and FlexRay slot counts
/// grow with the message count (a longer cycle can only raise the bound).
/// Without any latency assumption there is nothing to bound: the fixpoint
/// is skipped and the result is empty (not schedulable, no bounds).
[[nodiscard]] ChainAnalysis analyze_chains(
    const vfb::Lowering& lowering,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts);

/// V8 + V12: over the lowered slot dataflow (connector edges plus runnable
/// read->write relays), propagate guarantee intervals to a fixpoint, and
/// report transitive range conflicts and dead flows.
void check_flow_ranges(
    const vfb::Lowering& lowering,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

/// V9: judge every latency assumption analyze_chains bounded — error when
/// the obligation is below the static bound, info (with slack) otherwise,
/// warning when the chain cannot be bounded.
void check_chain_deadlines(const ChainAnalysis& chains, Diagnostics& out);

/// V10: cross-check contract obligations against the lowered flow
/// resolution (an obligation whose flow resolves to nothing gets no
/// monitor). With runtime_verification off, also warn once each for
/// obligations nothing watches and for the plan fields only the monitor
/// registry acts on (alive_supervision, recovery_mode). `plan` may be null
/// (the runtime_verification opt-out is then not checkable).
void check_monitor_coverage(
    const vfb::Lowering& lowering, const vfb::DeploymentPlan* plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

/// V11: lowered periodic load vs vertical ResourceSpec assumptions —
/// per-instance CPU share, per-ECU sums, and bus bandwidth against the
/// plan's bitrate.
void check_resource_budgets(
    const vfb::Lowering& lowering, const vfb::DeploymentPlan& plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

}  // namespace orte::validation
