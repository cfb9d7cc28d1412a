// Holistic schedulability analysis for distributed transactions
// (Tindell & Clark): the complete §3 "distributed real-time schedulability
// analysis for ... CAN bus-based target architectures", extended to FlexRay
// static-segment paths and local (same-ECU) activation edges so the analyzer
// bounds exactly the chains the runtime LatencyMonitors watch.
//
// Transactions are chains  task -> message -> task(s) -> ...  spanning ECUs,
// plus  task -> task  dependency edges for data-received activations that
// stay on one ECU (no bus hop, the consumer is released by the producer's
// write). One message may activate several tasks: a broadcast frame feeds
// every consumer of its payload. Release jitter is inherited along the
// chain (a message inherits the sending task's response time as jitter; a
// receiving task inherits the message's response time; a dependent task
// inherits the producer's response time directly), which couples all
// node-local analyses; the coupled system is solved by fixpoint iteration.
// Responses are monotone in jitter, so the iteration converges or provably
// diverges past a deadline. Tasks are indexed by name.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/can_analysis.hpp"
#include "analysis/rta.hpp"
#include "flexray/flexray_bus.hpp"
#include "sim/time.hpp"

namespace orte::analysis {

struct DistTask {
  std::string name;
  std::string ecu;
  Duration wcet = 0;
  Duration period = 0;  ///< For chain heads; inherited for triggered tasks.
  int priority = 0;     ///< Per-ECU priority (higher = more urgent).
};

struct DistMessage {
  std::string name;
  /// CAN identifier (lower = higher priority). Messages sharing one are
  /// frames of one PDU, queued FIFO in one controller.
  std::uint32_t id = 0;
  std::size_t bytes = 8;
  std::string from_task;
  /// Tasks every delivered frame activates; empty = pure bus load.
  std::vector<std::string> to_tasks;
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
  /// Effective period of every analysed task: chain heads carry their own,
  /// a triggered task inherits the smallest period feeding it. A task
  /// without one (an event task nothing activates) is left out of the
  /// analysis, and so are the messages it sends.
  std::map<std::string, Duration> period;
  /// Worst-case responses when schedulable, measured from the chain head's
  /// release: a stage's response includes its inherited jitter, which
  /// carries the whole upstream chain, so a chain's end-to-end latency is
  /// its tail's response.
  std::map<std::string, Duration> task_response;
  std::map<std::string, Duration> message_response;
};

class HolisticModel {
 public:
  void add_task(DistTask task);
  /// Adds a message and marks its `to_tasks` as triggered by it (each
  /// receiver inherits period and jitter through the chain).
  void add_message(DistMessage message);
  /// Adds a local activation edge: `to_task` is released directly by
  /// `from_task` (same-ECU data-received pipeline, no bus hop). The
  /// dependent task inherits the producer's period and its response time as
  /// release jitter.
  void add_dependency(std::string from_task, std::string to_task);

  /// Run the fixpoint iteration over `bus` (CAN or FlexRay static segment).
  /// `max_iterations` bounds the fixpoint; responses beyond 4x period are
  /// declared divergent.
  [[nodiscard]] HolisticResult analyze(const BusSpec& bus,
                                       int max_iterations = 100) const;

 private:
  struct Dependency {
    std::string from_task;
    std::string to_task;
  };

  std::vector<DistTask> tasks_;
  std::map<std::string, std::size_t> task_of_;  ///< Name -> index in tasks_.
  std::vector<DistMessage> messages_;
  std::vector<Dependency> dependencies_;

  [[nodiscard]] const DistTask& task(const std::string& name) const;
};

}  // namespace orte::analysis
