#include "flexray/flexray_bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::flexray {

namespace {
// FlexRay frame overhead: 5 byte header + 3 byte trailer + action point /
// channel idle margin folded into a constant per-slot guard of 1 us.
constexpr std::int64_t kOverheadBytes = 8;
constexpr Duration kSlotGuard = sim::microseconds(1);
// Controller transmit-buffer depth for dynamic frames; when full, the
// lowest-priority pending frame is dropped (real controllers have finite
// message RAM — an unbounded backlog would hide a misconfigured system).
constexpr std::size_t kDynamicQueueLimit = 64;
}  // namespace

void FlexRayController::send(Frame frame) {
  frame.source = node_;
  if (frame.id == 0) {
    throw std::invalid_argument("FlexRay frame id must be >= 1");
  }
  if (frame.id <= bus_->cfg_.static_slots) {
    if (frame.size() > bus_->cfg_.static_payload_bytes) {
      throw std::invalid_argument("static frame exceeds slot payload");
    }
    bus_->submit_static(std::move(frame));
  } else {
    bus_->submit_dynamic(std::move(frame));
  }
}

Duration FlexRayBus::slot_length(const FlexRayConfig& cfg) {
  const Duration bit_time = 1'000'000'000 / cfg.bitrate_bps;
  return static_cast<Duration>(
             (kOverheadBytes +
              static_cast<std::int64_t>(cfg.static_payload_bytes)) *
             8) *
             bit_time +
         kSlotGuard;
}

Duration FlexRayBus::cycle_length(const FlexRayConfig& cfg) {
  return static_cast<Duration>(cfg.static_slots) * slot_length(cfg) +
         static_cast<Duration>(cfg.minislots) * cfg.minislot_len +
         cfg.network_idle;
}

FlexRayBus::FlexRayBus(sim::Kernel& kernel, sim::Trace& trace,
                       FlexRayConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)) {
  if (cfg_.bitrate_bps <= 0 || cfg_.static_slots == 0 ||
      cfg_.minislot_len <= 0 || cfg_.network_idle < 0) {
    throw std::invalid_argument("FlexRay config invalid");
  }
  bit_time_ = 1'000'000'000 / cfg_.bitrate_bps;
  static_slot_len_ = slot_length(cfg_);
  dynamic_len_ = static_cast<Duration>(cfg_.minislots) * cfg_.minislot_len;
  cycle_len_ = cycle_length(cfg_);
  slot_owner_.assign(cfg_.static_slots + 1, -1);
  slot_buffer_.assign(cfg_.static_slots + 1, std::nullopt);
}

FlexRayController& FlexRayBus::attach() {
  if (started_) throw std::logic_error("FlexRayBus::attach after start()");
  const int node = static_cast<int>(controllers_.size());
  controllers_.push_back(
      std::unique_ptr<FlexRayController>(new FlexRayController(*this, node)));
  return *controllers_.back();
}

void FlexRayBus::assign_static_slot(std::uint32_t slot,
                                    const FlexRayController& owner) {
  if (slot == 0 || slot > cfg_.static_slots) {
    throw std::invalid_argument("static slot id out of range");
  }
  if (slot_owner_[slot] != -1) {
    throw std::invalid_argument("static slot already assigned");
  }
  slot_owner_[slot] = owner.node_;
}

void FlexRayBus::start() {
  if (started_) throw std::logic_error("FlexRayBus::start called twice");
  started_ = true;
  kernel_.schedule_at(kernel_.now(), [this] { begin_cycle(); },
                      sim::EventOrder::kHardware);
}

void FlexRayBus::submit_static(Frame frame) {
  if (slot_owner_[frame.id] != frame.source) {
    throw std::logic_error("node writes a static slot it does not own");
  }
  const std::size_t slot = frame.id;
  slot_buffer_[slot] = std::move(frame);  // overwrite: state semantics
  // Strictly after now: a write at the slot's start instant comes after the
  // slot opened (kHardware runs first), so it waits a cycle.
  if (slot < armed_slot_ && slot_start(slot) > kernel_.now()) {
    kernel_.cancel(armed_);
    arm(slot, slot_start(slot));
  }
}

void FlexRayBus::submit_dynamic(Frame frame) {
  auto it = std::find_if(
      dynamic_queue_.begin(), dynamic_queue_.end(),
      [&](const Frame& f) { return f.id > frame.id; });
  dynamic_queue_.insert(it, std::move(frame));
  if (dynamic_queue_.size() > kDynamicQueueLimit) {
    stats_.record_drop();
    trace_.emit(kernel_.now(), "fr.dyn_drop", dynamic_queue_.back().name,
                dynamic_queue_.back().id);
    dynamic_queue_.pop_back();  // shed the lowest-priority frame
  }
  const std::size_t segment = cfg_.static_slots + 1;
  if (armed_slot_ == segment + 1 && slot_start(segment) > kernel_.now()) {
    kernel_.cancel(armed_);
    arm(segment, slot_start(segment));
  }
}

void FlexRayBus::begin_cycle() {
  if (cycle_category_ == sim::kNoTraceId) {
    cycle_category_ = trace_.intern_category("fr.cycle");
    name_subject_ = trace_.intern_subject(cfg_.name);
  }
  cycle_start_ = kernel_.now();
  ++cycle_count_;
  trace_.emit(kernel_.now(), cycle_category_, name_subject_,
              static_cast<std::int64_t>(cycle_count_));
  run_static_slot(1);
}

void FlexRayBus::arm(std::size_t slot, Time when) {
  armed_slot_ = slot;
  armed_ = kernel_.schedule_at(
      when,
      [this, slot] {
        armed_slot_ = 0;
        if (slot > cfg_.static_slots + 1) {
          begin_cycle();
        } else {
          run_static_slot(slot);
        }
      },
      sim::EventOrder::kHardware);
}

void FlexRayBus::run_static_slot(std::size_t index) {
  const std::size_t segment = cfg_.static_slots + 1;
  while (index < segment && !slot_buffer_[index].has_value()) ++index;
  if (index == segment && dynamic_queue_.empty()) {
    arm(segment + 1, cycle_start_ + cycle_len_);  // sleep to the next cycle
    return;
  }
  if (slot_start(index) > kernel_.now()) {
    arm(index, slot_start(index));
    return;
  }
  if (index == segment) {
    begin_dynamic_segment();
    return;
  }
  const Time slot_end = kernel_.now() + static_slot_len_;
  Frame frame = std::move(*slot_buffer_[index]);
  slot_buffer_[index].reset();
  frame.sent_at = kernel_.now();
  stats_.record_queueing_delay(kernel_.now() - frame.enqueued_at);
  trace_.emit(kernel_.now(), "fr.static_tx", frame.name, frame.id);
  // Deliver first, then look for the next slot: a frame the delivery
  // produces is still seen by a slot that starts at this slot's end.
  kernel_.schedule_at(
      slot_end,
      [this, frame = std::move(frame), index]() mutable {
        stats_.record_tx(frame.sent_at, kernel_.now(), true);
        deliver(std::move(frame));
        run_static_slot(index + 1);
      },
      sim::EventOrder::kHardware);
}

void FlexRayBus::begin_dynamic_segment() {
  // Mini-slotting: walk the priority-sorted queue; each frame needs
  // ceil(tx_time / minislot) minislots and transmits only if they all fit
  // before the segment ends. Frames that do not fit wait for the next cycle.
  const Time segment_end = kernel_.now() + dynamic_len_;
  Time cursor = kernel_.now();
  while (!dynamic_queue_.empty()) {
    Frame frame = std::move(dynamic_queue_.front());
    dynamic_queue_.pop_front();
    const Duration tx_time =
        static_cast<Duration>(
            (kOverheadBytes + static_cast<std::int64_t>(frame.size())) * 8) *
        bit_time_;
    const auto needed_minislots =
        (tx_time + cfg_.minislot_len - 1) / cfg_.minislot_len;
    const Duration needed = needed_minislots * cfg_.minislot_len;
    if (cursor + needed > segment_end) {
      ++dynamic_deferrals_;
      deferred_.push_back(std::move(frame));
      continue;
    }
    frame.sent_at = cursor;
    stats_.record_queueing_delay(cursor - frame.enqueued_at);
    trace_.emit(cursor, "fr.dyn_tx", frame.name, frame.id);
    const Time done = cursor + needed;
    kernel_.schedule_at(
        done,
        [this, frame = std::move(frame)]() mutable {
          stats_.record_tx(frame.sent_at, kernel_.now(), true);
          deliver(std::move(frame));
        },
        sim::EventOrder::kHardware);
    cursor = done;
  }
  dynamic_queue_.swap(deferred_);  // the drained queue is the next deferred_
  // Next cycle after dynamic segment + network idle time. No write can pull
  // it earlier, so it is not armed_.
  kernel_.schedule_at(segment_end + cfg_.network_idle,
                      [this] { begin_cycle(); }, sim::EventOrder::kHardware);
}

void FlexRayBus::deliver(Frame frame) {
  if (fault_hook_) {
    const net::FaultVerdict verdict = fault_hook_(frame);
    if (verdict.drop) {
      stats_.record_drop();
      trace_.emit(kernel_.now(), "fr.fault_drop", frame.name, frame.id);
      return;
    }
    // verdict.delay intentionally ignored: the slot schedule owns timing.
  }
  frame.delivered_at = kernel_.now();
  trace_.emit(kernel_.now(), "fr.rx", frame.name, frame.id);
  for (const auto& c : controllers_) {
    if (c->node_ != frame.source) c->deliver(frame);
  }
}

}  // namespace orte::flexray
