// CAN 2.0A bus simulator.
//
// Modelled at frame granularity: priority arbitration on identifier at each
// bus-idle instant, non-preemptive transmission, worst-case bit-stuffed frame
// length; frame faults come from the fault-injection hook. This is the
// event-triggered baseline of the paper's predictability and extensibility
// experiments (E1, E3) and the reference for the CAN response-time analysis
// in src/analysis.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/bus_stats.hpp"
#include "net/fault_hook.hpp"
#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::can {

using net::Frame;
using sim::Duration;
using sim::Time;

class CanBus;

/// Worst-case (bit-stuffed) transmission time of a standard-format data
/// frame with `bytes` payload at `bitrate_bps` (Davis et al., RTSJ 2007:
/// C = (55 + 10 n) * tau_bit).
[[nodiscard]] Duration frame_transmission_time(std::size_t bytes,
                                               std::int64_t bitrate_bps);

/// Node-side CAN controller with a priority-ordered transmit queue.
class CanController : public net::Controller {
 public:
  void send(Frame frame) override;

 private:
  friend class CanBus;
  CanController(CanBus& bus, int node) : bus_(&bus), node_(node) {}

  const Frame* head() const { return queue_.empty() ? nullptr : &queue_[0]; }
  Frame pop_head();
  void push_sorted(Frame frame);
  void deliver(const Frame& f) { notify_receive(f); }

  CanBus* bus_;
  int node_;
  std::deque<Frame> queue_;
};

struct CanConfig {
  std::string name = "can0";
  std::int64_t bitrate_bps = 500'000;  ///< Classic high-speed CAN.
};

class CanBus {
 public:
  CanBus(sim::Kernel& kernel, sim::Trace& trace, CanConfig cfg);
  CanBus(const CanBus&) = delete;
  CanBus& operator=(const CanBus&) = delete;

  /// Attach a node; returns its controller (owned by the bus).
  CanController& attach();

  /// Transmission time of a frame with `bytes` payload, worst-case stuffing.
  [[nodiscard]] Duration frame_time(std::size_t bytes) const;

  /// Install the fault-injection hook, consulted once per transmitted frame
  /// at the delivery point. Drop, delay and in-place corruption are all
  /// honored. Replaces any previous hook; pass {} to clear.
  void set_fault_hook(net::FaultHook hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] const net::BusStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

 private:
  friend class CanController;

  void notify_pending();  ///< A controller enqueued a frame.
  void try_arbitrate();   ///< Schedule an arbitration decision point.
  void arbitrate();       ///< Start a transmission if bus idle + pending.
  void finish_tx();

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  CanConfig cfg_;
  std::vector<std::unique_ptr<CanController>> controllers_;
  net::BusStats stats_;
  net::FaultHook fault_hook_;

  bool busy_ = false;
  bool arbitration_scheduled_ = false;
  Frame in_flight_;
  int in_flight_source_ = -1;
};

}  // namespace orte::can
