// Holistic schedulability analysis for distributed transactions
// (Tindell & Clark): the complete §3 "distributed real-time schedulability
// analysis for ... CAN bus-based target architectures", extended to FlexRay
// static-segment paths and local (same-ECU) activation edges so the analyzer
// bounds exactly the chains the runtime LatencyMonitors watch.
//
// Transactions are chains  task -> message -> task(s) -> ...  spanning ECUs,
// plus  task -> task  edges for data-received activations that stay on one
// ECU (no bus hop, the consumer is released by the producer's write). Tasks
// and messages are addressed by their index in the vectors passed in. A
// chain head carries its own period; every other task names its one release
// source, a task or a message, and inherits that source's period. One
// message may release several tasks (a broadcast frame feeds every consumer
// of its payload), but no task has two sources: superposed activations
// arrive more often than either source, which this model does not bound.
// Release jitter is inherited along the chain (a message inherits the
// sending task's response time as jitter; a released task inherits its
// source's response), which couples all node-local analyses; the coupled
// system is solved by fixpoint iteration. Responses are monotone in jitter,
// so the iteration converges or provably diverges past a deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "flexray/flexray_bus.hpp"
#include "sim/time.hpp"

namespace orte::analysis {

using sim::Duration;

struct DistTask {
  /// What releases a task: nothing (a chain head, or a task left out when it
  /// has no period either), a task of its ECU, or a message.
  enum class Source { kNone, kTask, kMessage };

  /// Keeps the task out of its own interference in the per-ECU analysis.
  std::string name;
  std::size_t ecu = 0;  ///< Dense ECU index: equal indices share a CPU.
  Duration wcet = 0;
  Duration period = 0;  ///< Chain heads only: a released task inherits.
  int priority = 0;     ///< Per-ECU priority (higher = more urgent).
  Source source = Source::kNone;
  std::size_t from = 0;  ///< Index of the source task or message.
};

struct DistMessage {
  /// Tells apart the frames of one PDU, which share `id`.
  std::string name;
  /// CAN identifier (lower = higher priority). Messages sharing one are
  /// frames of one PDU, queued FIFO in one controller.
  std::uint32_t id = 0;
  std::size_t bytes = 8;
  std::size_t from_task = 0;  ///< Index of the sending task.
};

/// Bus model used by the fixpoint. The default is CAN (the paper's primary
/// target); FlexRay mode bounds every message by the static-slot TDMA
/// latency of the configured cycle (cycle + slot — a write that just misses
/// its slot waits one full communication cycle).
struct BusSpec {
  std::int64_t can_bitrate_bps = 500'000;
  bool use_flexray = false;
  flexray::FlexRayConfig flexray;
};

struct HolisticResult {
  bool schedulable = false;
  int iterations = 0;
  /// Effective period per task: a chain head's own, a released task's
  /// source's. 0 leaves the task out of the analysis (an event task nothing
  /// periodic releases), and with it the messages it sends.
  std::vector<Duration> period;
  /// Worst-case responses per task and per message when schedulable (empty
  /// otherwise), 0 for what is left out. They are measured from the chain
  /// head's release: a stage's response includes its inherited jitter,
  /// which carries the whole upstream chain, so a chain's end-to-end latency
  /// is its tail's response.
  std::vector<Duration> task_response;
  std::vector<Duration> message_response;
};

/// Run the fixpoint iteration over `bus` (CAN or FlexRay static segment).
/// Responses beyond 4x period are declared divergent.
[[nodiscard]] HolisticResult analyze_holistic(
    const std::vector<DistTask>& tasks,
    const std::vector<DistMessage>& messages, const BusSpec& bus);

}  // namespace orte::analysis
