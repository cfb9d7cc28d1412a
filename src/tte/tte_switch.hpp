// Time-triggered Ethernet (§4: "time-triggered protocols, such as FlexRay,
// TTP or Time-triggered Ethernet").
//
// One switch, one full-duplex link per endpoint, two traffic classes:
//  * TT  (time-triggered)  — frames leave the source at schedule-defined
//    instants (offset within a period) and take priority at the egress port;
//    a best-effort frame already in transmission is *shuffled* (the TT frame
//    waits for it), so TT jitter is bounded by one max-size best-effort
//    frame — the integration policy real TTE switches implement.
//  * BE  (best effort)      — whatever bandwidth is left.
// Store-and-forward: ingress serialization + switch latency + egress
// serialization (with class-priority queueing at the egress port).
// A delivery is observed through flow_latency_us(), frames_delivered() and
// its "tte.rx" trace record (subject: the flow ID); endpoints only send.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::tte {

using sim::Duration;
using sim::Time;

enum class TrafficClass { kTimeTriggered, kBestEffort };

struct TteFlow {
  std::uint32_t id = 0;
  TrafficClass cls = TrafficClass::kBestEffort;
  int source = -1;
  int destination = -1;
  std::size_t bytes = 64;   ///< Frame size (TT) / declared max (BE).
  Duration period = 0;      ///< TT: dispatch period.
  Duration offset = 0;      ///< TT: dispatch offset within the period.
};

struct TteFrame {
  std::uint32_t flow = 0;
  net::Payload payload;  ///< Shared buffer: egress queues copy it for free.
  Time enqueued_at = 0;
};

struct TteConfig {
  std::string name = "tte0";
  std::int64_t link_bandwidth_bps = 100'000'000;
};

class TteSwitch;

class TteEndpoint {
 public:
  /// Submit application data on a flow owned by this endpoint.
  /// TT flows: overwrites the flow buffer (state semantics; the schedule
  /// transmits the latest value). BE: queues for immediate transmission,
  /// subject to egress arbitration.
  void send(std::uint32_t flow, std::vector<std::uint8_t> payload);

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class TteSwitch;
  TteEndpoint(TteSwitch& sw, int index, std::string name)
      : switch_(&sw), index_(index), name_(std::move(name)) {}

  TteSwitch* switch_;
  int index_;
  std::string name_;
};

class TteSwitch {
 public:
  TteSwitch(sim::Kernel& kernel, sim::Trace& trace, TteConfig cfg);
  TteSwitch(const TteSwitch&) = delete;
  TteSwitch& operator=(const TteSwitch&) = delete;

  TteEndpoint& attach(std::string name);
  void add_flow(TteFlow flow);

  /// Arm the TT dispatch schedule. Call once after attach/add_flow.
  void start();

  [[nodiscard]] Duration tx_time(std::size_t bytes) const {
    // Minimum Ethernet frame on the wire is 84 bytes (incl. preamble/IFG).
    const std::size_t wire = std::max<std::size_t>(bytes + 38, 84);
    return static_cast<Duration>(wire) * 8 * bit_time_;
  }
  [[nodiscard]] const sim::Stats& flow_latency_us(std::uint32_t flow) const;
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }
  [[nodiscard]] const TteConfig& config() const { return cfg_; }

 private:
  friend class TteEndpoint;

  struct Egress {
    bool busy = false;
    std::deque<TteFrame> tt;
    std::deque<TteFrame> be;
  };

  void submit(int source, std::uint32_t flow_id,
              std::vector<std::uint8_t> payload);
  void dispatch_tt(const TteFlow& flow);
  /// Frame has finished ingress + switch; enqueue at the egress port.
  void to_egress(const TteFlow& flow, TteFrame frame);
  void serve_egress(std::size_t port);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  TteConfig cfg_;
  Duration bit_time_ = 0;  ///< Set once the rate is checked.
  std::vector<std::unique_ptr<TteEndpoint>> endpoints_;
  std::vector<TteFlow> flows_;
  std::vector<Egress> egress_;
  std::map<std::uint32_t, std::optional<net::Payload>> tt_buffer_;
  std::map<std::uint32_t, sim::Stats> latency_us_;
  std::uint64_t delivered_ = 0;
  bool started_ = false;

  [[nodiscard]] const TteFlow* find_flow(std::uint32_t id) const;
};

}  // namespace orte::tte
