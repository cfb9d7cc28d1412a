// LIN 2.x bus simulator (master/slave, schedule-table driven).
//
// The body-domain sub-bus under Figure 1's "Bus systems": a single master
// polls a static schedule table; each entry names a frame identifier whose
// *publisher* (master or one slave) answers with a response. Time-triggered
// by construction — the LIN schedule is the low-cost cousin of the FlexRay
// static segment, with the same composability property: frame timing is
// fixed by the table, not by node behaviour. Fault: a silent publisher
// produces a no-response slot (detected and counted).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/bus_stats.hpp"
#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::lin {

using net::Frame;
using sim::Duration;
using sim::Time;

class LinBus;

class LinNode : public net::Controller {
 public:
  /// Store the response payload for a frame id this node publishes
  /// (overwrite semantics; transmitted when the master polls the id).
  void send(Frame frame) override;

  /// Fail-silent from `t` on: polled slots go unanswered.
  void crash_at(Time t) { crash_time_ = t; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int index() const { return index_; }

 private:
  friend class LinBus;
  LinNode(LinBus& bus, int index, std::string name)
      : bus_(&bus), index_(index), name_(std::move(name)) {}
  void deliver(const Frame& f) { notify_receive(f); }

  LinBus* bus_;
  int index_;
  std::string name_;
  Time crash_time_ = sim::kForever;
};

struct LinScheduleEntry {
  std::uint8_t frame_id = 0;  ///< 0..63.
  int publisher = 0;          ///< Node index answering the header.
  std::size_t bytes = 8;      ///< Response payload length (1..8).
  /// Slot duration; 0 = auto (140% of nominal frame time, per LIN spec).
  Duration slot = 0;
};

struct LinConfig {
  std::string name = "lin0";
  std::int64_t bitrate_bps = 19'200;
};

class LinBus {
 public:
  LinBus(sim::Kernel& kernel, sim::Trace& trace, LinConfig cfg);
  LinBus(const LinBus&) = delete;
  LinBus& operator=(const LinBus&) = delete;

  /// Node 0 is the master by convention (owns the schedule).
  LinNode& attach(std::string name);
  void set_schedule(std::vector<LinScheduleEntry> schedule);
  void start();

  /// Nominal on-wire time: header (34 bits) + response (10*(n+1) bits).
  [[nodiscard]] Duration frame_time(std::size_t bytes) const;
  /// Slot duration for an entry (140% of nominal unless overridden).
  [[nodiscard]] Duration slot_time(const LinScheduleEntry& e) const;
  /// One full rotation of the schedule table.
  [[nodiscard]] Duration cycle_time() const;

  [[nodiscard]] const net::BusStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t no_responses() const { return no_responses_; }

 private:
  friend class LinNode;

  void run_slot(std::size_t index);
  void store_response(int node, Frame frame);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  LinConfig cfg_;
  Duration bit_time_ = 0;  ///< Set once the rate is checked.
  std::vector<std::unique_ptr<LinNode>> nodes_;
  std::vector<LinScheduleEntry> schedule_;
  /// Response buffer per frame id (published data waiting for the poll).
  std::vector<std::optional<Frame>> responses_;
  net::BusStats stats_;
  std::uint64_t no_responses_ = 0;
  bool started_ = false;
};

}  // namespace orte::lin
