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
//                                analyze_holistic) over the lowered tasks,
//                                including data-received event tasks, and
//                                the generated PDU frames on CAN or FlexRay;
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
//  V12 dead flows              — liveness on the V8 dataflow graph, one
//                                reach() each way: reads whose transitive
//                                source never produces fresh data, and
//                                writes whose values dead-end in relay
//                                chains (both only where V3 stays silent).
//
// Every pass reads one vfb::Lowering of the model, the same derivation
// vfb::System instantiates. analyze_chains() is the only timing analysis of
// a lowering: vfb::System runs it once on the lowering it builds, V9 judges
// the result, each LatencyMonitor records its bound next to the threshold —
// the bound >= observed cross-check that certifies the dynamic layer
// against the static one — and System::analyze() returns it.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
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

/// The timing verdict over a generated deployment (§2: "prior to
/// implementation system configuration checks"; §3: "assess realizability
/// of end-to-end latencies"). Responses exist when `schedulable`.
struct ChainAnalysis {
  bool schedulable = false;  ///< Holistic verdict over tasks and frames.
  /// False when some task has no derivable period (an event task nothing
  /// activates): the verdict then covers only the rest.
  bool complete = false;
  int iterations = 0;  ///< Fixpoint iterations until convergence.
  /// CAN: sum of frame time over writer period, one frame per signal write.
  /// FlexRay: the share of the cycle the PDUs' static slots take.
  double bus_utilization = 0.0;
  /// Worst case per task with a derivable period, event tasks included,
  /// measured from the chain head's release.
  std::map<std::string, sim::Duration> task_response;
  /// Worst case per PDU from queueing to delivery: its worst frame response
  /// minus the writing task's (on FlexRay one cycle plus one slot).
  std::map<std::string, sim::Duration> pdu_response;
  std::vector<ChainBound> bounds;  ///< One entry per latency assumption.
};

/// The one closure over the lowered slot dataflow: every slot key the
/// `seeds` reach. Forward, a connector edge carries its producer key to its
/// receiver key, and a runnable that reads a reached key reaches every key it
/// writes; backward, the same links run in reverse. The keys view strings of
/// `lowering` or what `seeds` view. V12 and the detectability analysis
/// (V13-V15) read it.
[[nodiscard]] std::unordered_set<std::string_view> reach(
    const vfb::Lowering& lowering, const std::vector<std::string_view>& seeds,
    bool forward);

/// Run the holistic fixpoint on the lowered deployment: analysis task i is
/// `lowering.tasks[i]`; message j is the j-th written signal in PDU order,
/// carrying its PDU's frame id and length (COM signals are triggered, so
/// each write sends the whole PDU once). An event task is released by the
/// writer's task of a same-ECU edge or by the message of the signal that
/// feeds its trigger; a task fed from two sources (a required port fed
/// twice, V2's error) is left out, since the analysis does not combine
/// sources. FlexRay frames are bounded by the cycle the lowering configures.
/// A bus bitrate that is not positive yields an empty analysis.
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
/// registry acts on (alive_supervision, recovery_mode).
void check_monitor_coverage(
    const vfb::Lowering& lowering, const vfb::DeploymentPlan& plan,
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
