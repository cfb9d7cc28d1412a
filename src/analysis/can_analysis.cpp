#include "analysis/can_analysis.hpp"

#include <algorithm>

#include "can/can_bus.hpp"

namespace orte::analysis {

std::optional<Duration> can_response_time(const CanMessage& msg,
                                          const std::vector<CanMessage>& all,
                                          std::int64_t bitrate_bps) {
  const Duration tau_bit = 1'000'000'000 / bitrate_bps;
  const Duration c_m = can::frame_transmission_time(msg.bytes, bitrate_bps);
  // Blocking: longest lower-priority (higher id) frame already on the wire.
  Duration blocking = 0;
  for (const auto& k : all) {
    if (k.id > msg.id) {
      blocking = std::max(
          blocking, can::frame_transmission_time(k.bytes, bitrate_bps));
    }
  }
  const Duration horizon = msg.period > 0 ? msg.period : sim::milliseconds(1000);
  Duration w = blocking;
  while (true) {
    Duration next = blocking;
    for (const auto& k : all) {
      // Higher priority interferes, and so does every other frame with an
      // equal identifier: frames of one PDU queue FIFO in one controller.
      if (k.id > msg.id || k.period <= 0 ||
          (k.id == msg.id && k.name == msg.name)) {
        continue;
      }
      const Duration c_k = can::frame_transmission_time(k.bytes, bitrate_bps);
      next += ((w + k.jitter + tau_bit + k.period - 1) / k.period) * c_k;
    }
    if (next + c_m + msg.jitter > horizon) return std::nullopt;
    if (next == w) return msg.jitter + w + c_m;
    w = next;
  }
}

CanAnalysisResult analyze_can(const std::vector<CanMessage>& messages,
                              std::int64_t bitrate_bps) {
  CanAnalysisResult result;
  for (const auto& m : messages) {
    if (m.period > 0) {
      result.utilization +=
          static_cast<double>(
              can::frame_transmission_time(m.bytes, bitrate_bps)) /
          static_cast<double>(m.period);
    }
    auto r = can_response_time(m, messages, bitrate_bps);
    if (!r.has_value()) {
      result.schedulable = false;
      continue;
    }
    result.response[m.name] = *r;
  }
  return result;
}

}  // namespace orte::analysis
