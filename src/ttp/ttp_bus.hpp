// TTP-style time-triggered protocol simulator (Kopetz & Grünsteidl, 1994).
//
// A TDMA round gives every node exactly one sending slot; nodes broadcast a
// frame in every slot they own (a heartbeat when the application wrote no
// payload). The bus provides:
//  * a membership service: a node that fails to transmit correctly in its
//    slot leaves the membership vector within one round,
//  * local bus guardians: a babbling node's out-of-slot transmissions are
//    blocked before they reach the medium (error containment, §4 req. 4),
//  * fault injection: babbling-idiot faults.
// With guardians disabled, babbling collides with — and corrupts — every
// overlapping slot, which is exactly the contrast experiment E4 measures.
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

namespace orte::ttp {

using net::Frame;
using sim::Duration;
using sim::Time;

class TtpBus;

class TtpNode : public net::Controller {
 public:
  /// Store payload for broadcast in this node's next owned slot (state
  /// message semantics: later sends overwrite earlier ones).
  void send(Frame frame) override;

  /// Inject a babbling-idiot fault over [from, until): the node attempts to
  /// transmit continuously, also outside its slot.
  void babble(Time from, Time until);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int index() const { return index_; }

 private:
  friend class TtpBus;
  TtpNode(TtpBus& bus, int index, std::string name)
      : bus_(&bus), index_(index), name_(std::move(name)) {}
  void deliver(const Frame& f) { notify_receive(f); }

  TtpBus* bus_;
  int index_;
  std::string name_;
  std::optional<Frame> buffer_;
  Time babble_from_ = sim::kForever;
  Time babble_until_ = sim::kForever;
};

struct TtpConfig {
  std::string name = "ttp0";
  Duration slot_len = sim::microseconds(100);
  bool bus_guardian = true;  ///< Local guardians enforce slot boundaries.
};

class TtpBus {
 public:
  TtpBus(sim::Kernel& kernel, sim::Trace& trace, TtpConfig cfg);
  TtpBus(const TtpBus&) = delete;
  TtpBus& operator=(const TtpBus&) = delete;

  TtpNode& attach(std::string name);

  /// Begin TDMA rounds. Call once after all attaches.
  void start();

  [[nodiscard]] Duration round_len() const {
    return static_cast<Duration>(nodes_.size()) * cfg_.slot_len;
  }
  [[nodiscard]] const std::vector<bool>& membership() const {
    return membership_;
  }
  [[nodiscard]] std::uint64_t membership_losses() const {
    return membership_losses_;
  }
  [[nodiscard]] std::uint64_t guardian_blocks() const {
    return guardian_blocks_;
  }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] const net::BusStats& stats() const { return stats_; }
  [[nodiscard]] const TtpConfig& config() const { return cfg_; }

 private:
  friend class TtpNode;

  void run_slot(std::size_t owner);
  /// True when some node other than `owner` is babbling unguarded at `t`.
  bool interference_at(Time t, int owner);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  TtpConfig cfg_;
  std::vector<std::unique_ptr<TtpNode>> nodes_;
  std::vector<bool> membership_;
  net::BusStats stats_;
  std::uint64_t membership_losses_ = 0;
  std::uint64_t guardian_blocks_ = 0;
  std::uint64_t collisions_ = 0;
  bool started_ = false;
};

}  // namespace orte::ttp
