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
// work: the start of the next occupied static slot, else the start of the
// dynamic segment when its queue is non-empty, else the start of the next
// cycle. A write whose slot (or segment) starts strictly after now() in the
// current cycle pulls that event earlier. A write at exactly a slot's start
// instant misses the slot, as a bus that opened every slot would: the slot
// opens at EventOrder::kHardware, before any software event at that
// instant. An idle cycle costs one kernel event, so a run costs
// O(frames + cycles) events instead of O(static slots x cycles).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
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
  [[nodiscard]] std::uint64_t cycles() const { return cycle_count_; }
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
  void begin_cycle();
  /// Transmit the first occupied static slot from `index` on if it starts
  /// now; otherwise arm the next instant with work (see the header comment).
  void run_static_slot(std::size_t index);
  void begin_dynamic_segment();
  void deliver(Frame frame);
  /// Start of static slot `index` (1-based) in the current cycle; index
  /// static_slots + 1 is the start of the dynamic segment.
  [[nodiscard]] Time slot_start(std::size_t index) const {
    return cycle_start_ +
           static_cast<Duration>(index - 1) * static_slot_len_;
  }
  /// Arm the one kernel event at `when`: run_static_slot(slot), or
  /// begin_cycle() for slot static_slots + 2.
  void arm(std::size_t slot, Time when);

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

  Time cycle_start_ = 0;
  /// The one armed kernel event and what it opens: a static slot (1-based),
  /// static_slots + 1 for the dynamic segment, static_slots + 2 for the next
  /// cycle. 0 while a slot transmits, after the dynamic segment began, and
  /// before the first cycle: no write can pull the event earlier then.
  sim::EventHandle armed_;
  std::size_t armed_slot_ = 0;
  /// "fr.cycle" and the bus name, interned at the first cycle (where the
  /// string emit interned them, so every TraceId keeps its number).
  sim::TraceId cycle_category_ = sim::kNoTraceId;
  sim::TraceId name_subject_ = sim::kNoTraceId;

  net::BusStats stats_;
  net::FaultHook fault_hook_;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t dynamic_deferrals_ = 0;
  bool started_ = false;
};

}  // namespace orte::flexray
