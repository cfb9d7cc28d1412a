// CAN message response-time analysis (Davis, Burns, Bril, Lukkien: RTSJ 2007
// revised analysis) — the bus-level half of §3's distributed schedulability
// analysis for CAN-based target architectures.
//
//   w^{n+1} = B_m + sum_{k in hp(m)} ceil((w^n + J_k + tau_bit) / T_k) * C_k
//   R_m     = J_m + w + C_m
// with B_m the longest lower-priority frame (non-preemptive transmission).
// hp(m) also holds every other message (by name) with m's identifier: equal
// identifiers are frames of one PDU, queued FIFO in one controller, so one
// queued first is sent first.
// Valid for queueing jitter J and R_m <= T_m (single-instance busy period),
// which holds for all workloads generated in this repository (utilization is
// checked first).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace orte::analysis {

using sim::Duration;

struct CanMessage {
  std::string name;
  std::uint32_t id = 0;  ///< Identifier: lower = higher priority.
  std::size_t bytes = 8;
  Duration period = 0;
  Duration jitter = 0;  ///< Queueing jitter at the sender.
};

/// Worst-case queuing-to-delivery time of `msg`; nullopt if unschedulable
/// (busy period exceeds the period, or bus over-utilized).
std::optional<Duration> can_response_time(const CanMessage& msg,
                                          const std::vector<CanMessage>& all,
                                          std::int64_t bitrate_bps);

struct CanAnalysisResult {
  bool schedulable = true;
  double utilization = 0.0;
  std::map<std::string, Duration> response;
};

CanAnalysisResult analyze_can(const std::vector<CanMessage>& messages,
                              std::int64_t bitrate_bps);

}  // namespace orte::analysis
