// FlexRay bus simulator (protocol spec v2.1 structure, frame granularity).
//
// Communication cycle = static segment (TDMA slots, one owner each, state-
// message semantics: the slot buffer holds the latest written value) +
// dynamic segment (mini-slotting: lower frame id = higher priority, a frame
// transmits only if enough minislots remain in this cycle) + network idle
// time. This is the time-triggered comparator in experiments E1/E3 and the
// backbone of the brake-by-wire example.
//
// Sparse arming: the schedule says in advance which slots are idle, so the
// bus keeps at most one armed kernel event, at the next instant where it has
// work: the start of the next static slot whose buffer holds a frame, or the
// start of the next dynamic segment while frames are queued for it, in this
// cycle or a later one. A bus with nothing to send sleeps: an idle cycle
// costs no kernel event, and cycles() is computed from the elapsed time. A
// write whose slot (or segment) starts strictly after now() pulls the event
// earlier; a write at exactly a slot's start instant misses the slot, as a
// bus that opened every slot would: the slot opens at EventOrder::kHardware,
// before any software event at that instant. A run costs O(frames) kernel
// events instead of O(static slots x cycles).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/bus_stats.hpp"
#include "net/fault_hook.hpp"
#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::flexray {

using net::Frame;
using sim::Duration;
using sim::Time;

class FlexRayBus;

class FlexRayController : public net::Controller {
 public:
  /// Static frames (id in [1, n_static]) overwrite the slot buffer (state
  /// message semantics); dynamic frames (id > n_static) queue by priority.
  void send(Frame frame) override;

 private:
  friend class FlexRayBus;
  FlexRayController(FlexRayBus& bus, int node) : bus_(&bus), node_(node) {}
  void deliver(const Frame& f) { notify_receive(f); }

  FlexRayBus* bus_;
  int node_;
};

struct FlexRayConfig {
  std::string name = "fr0";
  std::int64_t bitrate_bps = 10'000'000;
  std::size_t static_slots = 16;
  std::size_t static_payload_bytes = 16;  ///< Payload capacity per slot.
  std::size_t minislots = 40;
  Duration minislot_len = sim::microseconds(2);
  Duration network_idle = sim::microseconds(50);
};

class FlexRayBus {
 public:
  FlexRayBus(sim::Kernel& kernel, sim::Trace& trace, FlexRayConfig cfg);
  FlexRayBus(const FlexRayBus&) = delete;
  FlexRayBus& operator=(const FlexRayBus&) = delete;

  FlexRayController& attach();

  /// Static slot / cycle lengths implied by a configuration (shared with the
  /// timing analysis in src/analysis so both always agree).
  static Duration slot_length(const FlexRayConfig& cfg);
  static Duration cycle_length(const FlexRayConfig& cfg);

  /// Give a static slot (1-based id) to a node. Unassigned slots stay idle.
  void assign_static_slot(std::uint32_t slot, const FlexRayController& owner);

  /// Begin cycling. Call once after all assignments.
  void start();

  /// Install the fault-injection hook, consulted once per frame at the
  /// delivery point. Drop and in-place corruption are honored; delay is
  /// ignored — the TDMA slot structure pins delivery instants, which is the
  /// containment property the fault campaigns measure. Pass {} to clear.
  void set_fault_hook(net::FaultHook hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] Duration static_slot_len() const { return static_slot_len_; }
  [[nodiscard]] Duration cycle_len() const { return cycle_len_; }
  /// Cycles begun by now(), counting one that begins at now(); 0 before
  /// start().
  [[nodiscard]] std::uint64_t cycles() const;
  [[nodiscard]] const net::BusStats& stats() const { return stats_; }
  [[nodiscard]] const FlexRayConfig& config() const { return cfg_; }
  /// Dynamic frames that could not fit in their cycle and were deferred.
  [[nodiscard]] std::uint64_t dynamic_deferrals() const {
    return dynamic_deferrals_;
  }

 private:
  friend class FlexRayController;

  void submit_static(Frame frame);
  void submit_dynamic(Frame frame);
  /// The first start of static slot `index` (1-based; static_slots + 1 is
  /// the dynamic segment) after now(), or at now() too when `now_counts`
  /// (inside the bus's own delivery).
  [[nodiscard]] Time next_start(std::size_t index, bool now_counts) const;
  /// The next slot with work from now() on (0: none) and its start;
  /// `now_counts` as for next_start().
  [[nodiscard]] std::size_t next_work(bool now_counts, Time& when) const;
  /// Pull the armed event to (`index`, `when`) if that is earlier.
  void arm_earlier(std::size_t index, Time when);
  /// After a static slot's delivery or a segment's start: open the next
  /// slot with work if it starts now, else arm it (or sleep).
  void advance(bool now_counts);
  /// Open slot `index` at now(): transmit its frame, or run the segment.
  void open(std::size_t index);
  void begin_dynamic_segment();
  /// Put `frame` on the medium until `done`; deliver it then.
  void transmit(Frame frame, Time done);
  void deliver(Frame frame);
  /// The bus's trace categories, interned together at its first emit.
  struct Categories {
    sim::TraceId static_tx = sim::kNoTraceId;
    sim::TraceId dyn_tx = sim::kNoTraceId;
    sim::TraceId rx = sim::kNoTraceId;
    sim::TraceId fault_drop = sim::kNoTraceId;
    sim::TraceId dyn_drop = sim::kNoTraceId;
  };
  const Categories& categories();
  /// Trace subject of a frame's name, interned once per frame ID.
  sim::TraceId subject_of(const Frame& frame);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  FlexRayConfig cfg_;
  Duration bit_time_ = 0;  ///< Set once the bitrate is checked.
  Duration static_slot_len_;
  Duration dynamic_len_;
  Duration cycle_len_;

  std::vector<std::unique_ptr<FlexRayController>> controllers_;
  /// slot id (1-based) -> owning node, -1 if unassigned.
  std::vector<int> slot_owner_;
  /// Latest value written per static slot (state-message buffer).
  std::vector<std::optional<Frame>> slot_buffer_;
  /// Pending dynamic frames, sorted ascending by id.
  std::deque<Frame> dynamic_queue_;
  /// Frames a dynamic segment defers; kept empty between segments and
  /// swapped with dynamic_queue_, so no cycle builds a deque.
  std::deque<Frame> deferred_;
  /// Frames on the medium, in delivery order, from in_flight_head_ on; the
  /// vector is cleared (keeping its capacity) whenever it drains.
  std::vector<Frame> in_flight_;
  std::size_t in_flight_head_ = 0;

  /// Instant of the first cycle (start()).
  Time origin_ = 0;
  /// The one armed kernel event, the slot it opens (static_slots + 1: the
  /// dynamic segment) and its instant; kForever while none is armed.
  sim::EventHandle armed_;
  std::size_t armed_index_ = 0;
  Time armed_at_ = sim::kForever;
  /// A static frame is on the medium: its delivery arms what follows.
  bool transmitting_ = false;
  /// Inside deliver(): a slot starting now() is still ahead of a write.
  bool delivering_ = false;

  Categories categories_;
  struct Subject {
    std::string name;
    sim::TraceId id = sim::kNoTraceId;
  };
  /// Frame ID -> the trace subject of the name last sent under it.
  std::unordered_map<std::uint32_t, Subject> subjects_;

  net::BusStats stats_;
  net::FaultHook fault_hook_;
  std::uint64_t dynamic_deferrals_ = 0;
  bool started_ = false;
};

}  // namespace orte::flexray
