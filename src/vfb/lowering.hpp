// Lowering: Composition (with its bound contracts) + DeploymentPlan -> plain
// deployment data.
//
// The paper's §2 RTE generator works like a compiler: one configuration
// (components plus their ECU mapping) yields every artifact. lower() is that
// single derivation: one walk over the model returns every fact more than
// one consumer needs — the generated tasks and writer tasks, the
// time-triggered dispatch tables, the signals, PDUs and routes with the
// effective bus configuration, the slot dataflow, every resolved contract
// flow, and the monitor inventory with the instance each monitor blames.
// vfb::System lowers once, validates that lowering and instantiates it; the
// validator (V2–V5, V7–V15), the detectability analysis and the fault
// admission check (validation::check_faults) read it. lower() never throws:
// validation runs it on malformed models, so whatever does not resolve is
// skipped and recorded in `problems`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/tt_schedule.hpp"
#include "can/can_bus.hpp"
#include "contracts/contract.hpp"
#include "flexray/flexray_bus.hpp"
#include "sim/time.hpp"
#include "vfb/deployment.hpp"
#include "vfb/model.hpp"

namespace orte::vfb {

struct LoweredRunnable {
  const Runnable* runnable = nullptr;
  sim::Duration inlined = 0;  ///< WCET of its synchronous server calls.
};

/// One generated OS task: one per (instance, period) for timing runnables at
/// rate-monotonic priorities per ECU, one per data-received runnable.
struct LoweredTask {
  std::string name;
  std::string instance;  ///< Owning component instance.
  std::string ecu;
  sim::Duration period = 0;  ///< Timing period; 0 = event task.
  int priority = 0;
  /// Analysis WCET: per runnable its declared bound (or a probe of its
  /// execution time) plus its inlined server calls, summed.
  sim::Duration wcet = 0;
  std::vector<LoweredRunnable> runnables;
  std::string trigger_key;  ///< Activating receiver key; empty = periodic.
  bool table_dispatched = false;  ///< Activated by the TT schedule table.

  [[nodiscard]] bool periodic() const { return trigger_key.empty(); }
};

/// One cross-ECU data element carried as a COM signal.
struct LoweredSignal {
  std::string name;
  std::string sender_key;
  std::string sender_ecu;
  const DataElement* element = nullptr;
  /// Writer period (the frame-id sort key); kForever = event-produced.
  sim::Duration sort_period = sim::kForever;
  std::vector<std::pair<std::string, std::string>> receivers;  ///< (ECU, key)
};

/// One I-PDU: signals of one sender ECU and writer period, packed.
struct LoweredPdu {
  std::string name;  ///< Also the name of its frames on the bus.
  std::string sender_ecu;
  /// Writer period (the frame-id sort key); kForever = event-produced.
  sim::Duration period = sim::kForever;
  std::uint32_t frame_id = 0;  ///< CAN identifier or FlexRay static slot.
  std::size_t bytes = 0;
  /// (index into Lowering::signals, bit offset), in packing order.
  std::vector<std::pair<std::size_t, std::size_t>> signals;
};

/// A same-ECU connector element: a local copy from sender to receiver slot.
struct LocalRoute {
  std::string ecu;
  std::string sender_key;
  std::string receiver_key;
  const DataElement* element = nullptr;
};

/// One sender-receiver connector at element granularity.
struct FlowEdge {
  std::string producer_key;  ///< "rte.write" subject.
  std::string receiver_key;  ///< "rte.deliver" subject.
  std::string src_instance;
  std::string src_port;
  std::string dst_instance;
  std::string dst_port;
  std::string element;
  std::string src_ecu;  ///< Empty when not deployed.
  std::string dst_ecu;
  bool cross_ecu = false;
  bool dst_typed = false;  ///< The receiver instance's type resolves.
};

/// Read and write slots of one runnable (data accesses plus its
/// data-received trigger), for every instance whose type resolves.
struct RunnableIo {
  std::string instance;
  const Runnable* runnable = nullptr;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// The access behind each read (null for the trigger) and each write.
  std::vector<const DataAccess*> read_accesses;
  std::vector<const DataAccess*> write_accesses;
};

/// One sender key a contract flow resolves to.
struct FlowEnd {
  std::string producer;  ///< Producing instance.
  std::string producer_port;
  std::string element;
  std::string key;  ///< Producer sender key ("rte.write").
  /// The contract owner's receiver slot ("rte.deliver"); empty for flows of
  /// provided ports.
  std::string receiver_key;
};

/// A contract flow ("port" or "port.element") of one instance, resolved.
/// Writes are traced under the sender key, so required-port flows resolve
/// through the feeding connector to the producer.
struct ResolvedFlow {
  std::vector<FlowEnd> ends;  ///< Empty = the flow names nothing routable.
  /// Data-received runnable of the owner this flow activates (last match)
  /// and its event task; empty when none.
  std::string sink_runnable;
  std::string sink_task;
};

/// One runtime monitor vfb::System compiles, one label of a behaviour
/// automaton, or one alive heartbeat, in registry order.
struct MonitorEntry {
  enum class Kind {
    kDeadline,      ///< Per generated task.
    kArrival,       ///< Guarantee period on a sender key.
    kRangeWrite,    ///< Guarantee range on a sender key.
    kRangeDeliver,  ///< Assumption range on a receiver slot.
    kLatency,       ///< Assumption latency, sender key -> owner.
    kAutomaton,     ///< One label binding of a behaviour automaton.
    kAlive,         ///< Heartbeat of a periodic guarantee (plan opt-in).
  };
  Kind kind = Kind::kDeadline;
  /// Contract name; the task name for a deadline of a contract-less owner.
  std::string contract;
  /// Watched trace subject: task name (deadline), receiver key
  /// (range-deliver), otherwise the sender key.
  std::string subject;
  std::string blame;  ///< Instance a violation blames.
  /// Clause enforced (arrival, range, latency, alive); null otherwise.
  const contracts::FlowSpec* clause = nullptr;
  sim::Duration deadline = 0;  ///< kDeadline: the task's period.
  std::string report_subject;  ///< kRangeDeliver: the feeding sender key.
  std::string sink;            ///< kLatency: the consuming instance.
  std::string sink_runnable;   ///< kLatency: its activated runnable, if any.
  const contracts::BehaviourSpec* behaviour = nullptr;  ///< kAutomaton.
  std::string label;                                    ///< kAutomaton.
};

/// Something lower() skipped. A validation-clean model lowers without any.
struct LoweringProblem {
  enum class Kind {
    kUnresolved,            ///< A name in the model does not resolve.
    kUndeployed,            ///< An instance has no deployment.
    kServerCall,            ///< A server call cannot be inlined.
    kCrossEcuClientServer,  ///< A client-server connector spans ECUs.
    kTooManyPeriodicTasks,  ///< An ECU exceeds the periodic-task limit.
    kUnschedulableTable,    ///< No time-triggered table fits an ECU's tasks.
  };
  Kind kind = Kind::kUnresolved;
  std::string subject;
  std::string message;
};

struct Lowering {
  std::vector<std::string> ecus;  ///< Deployed ECUs, sorted.
  /// Per ECU: periodic tasks by priority, then event tasks in model order.
  std::vector<LoweredTask> tasks;
  /// Time-triggered plans: ECU -> dispatch table over its periodic tasks,
  /// synthesized from their analysis WCETs (none without periodic tasks).
  std::map<std::string, analysis::TtSchedule, std::less<>> tables;
  /// Sender key -> index into `tasks` of its publisher: the smallest-period
  /// timing writer, else the first data-received writer.
  std::map<std::string, std::size_t, std::less<>> writer_task;
  std::vector<LoweredSignal> signals;
  std::vector<LoweredPdu> pdus;  ///< In frame-id order.
  std::vector<LocalRoute> routes;
  /// The plan's bus configuration with the generator's FlexRay floors
  /// applied (one static slot per PDU, 8-byte payloads).
  BusKind bus = BusKind::kCan;
  can::CanConfig can;
  flexray::FlexRayConfig flexray;
  std::vector<FlowEdge> edges;
  std::vector<RunnableIo> runnables;
  /// Every sender key some runnable writes, sorted and unique.
  std::vector<std::string> written;
  /// Deployed instance -> sum of WCET/period over its timing runnables.
  std::map<std::string, double, std::less<>> periodic_load;
  /// Instance -> flow -> resolution, for every flow a contract of a model
  /// instance names.
  std::map<std::string, std::map<std::string, ResolvedFlow, std::less<>>,
           std::less<>>
      flows;
  std::vector<MonitorEntry> monitors;
  std::vector<LoweringProblem> problems;

  /// Resolution of a contract flow; empty for flows no contract names.
  [[nodiscard]] const ResolvedFlow& flow(std::string_view instance,
                                         std::string_view flow) const;
};

/// Derive the deployment of `model` under `plan`; the model's bound
/// contracts drive flow resolution and the monitor inventory.
[[nodiscard]] Lowering lower(const Composition& model,
                             const DeploymentPlan& plan);

/// Rendered monitor kind: "deadline", "arrival", "range-write", ...
[[nodiscard]] std::string_view to_string(MonitorEntry::Kind kind);

/// Fault target match on a sender key or frame name: the exact name, or a
/// prefix of it ending before a segment separator, '.' or '|' ("pedal"
/// matches "pedal.out.pos", not "pedal2.out.pos"; "pdu|pedal_ecu" matches
/// "pdu|pedal_ecu|5000000|0").
[[nodiscard]] bool key_matches(std::string_view target, std::string_view key);

}  // namespace orte::vfb
