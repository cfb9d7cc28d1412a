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
  origin_ = kernel_.now();
  // Frames written before start() go out from the first cycle on.
  Time when = 0;
  if (const std::size_t index = next_work(true, when)) arm_earlier(index, when);
}

std::uint64_t FlexRayBus::cycles() const {
  if (!started_) return 0;
  return static_cast<std::uint64_t>((kernel_.now() - origin_) / cycle_len_ + 1);
}

const FlexRayBus::Categories& FlexRayBus::categories() {
  if (categories_.rx == sim::kNoTraceId) {
    categories_ = {trace_.intern_category("fr.static_tx"),
                   trace_.intern_category("fr.dyn_tx"),
                   trace_.intern_category("fr.rx"),
                   trace_.intern_category("fr.fault_drop"),
                   trace_.intern_category("fr.dyn_drop")};
  }
  return categories_;
}

sim::TraceId FlexRayBus::subject_of(const Frame& frame) {
  Subject& subject = subjects_[frame.id];
  if (subject.id == sim::kNoTraceId || subject.name != frame.name) {
    subject.name = frame.name;
    subject.id = trace_.intern_subject(frame.name);
  }
  return subject.id;
}

void FlexRayBus::submit_static(Frame frame) {
  if (slot_owner_[frame.id] != frame.source) {
    throw std::logic_error("node writes a static slot it does not own");
  }
  const std::size_t slot = frame.id;
  slot_buffer_[slot] = std::move(frame);  // overwrite: state semantics
  // While a static frame is on the medium, its delivery looks for the next
  // slot itself.
  if (started_ && !transmitting_) {
    arm_earlier(slot, next_start(slot, delivering_));
  }
}

void FlexRayBus::submit_dynamic(Frame frame) {
  auto it = std::find_if(
      dynamic_queue_.begin(), dynamic_queue_.end(),
      [&](const Frame& f) { return f.id > frame.id; });
  dynamic_queue_.insert(it, std::move(frame));
  if (dynamic_queue_.size() > kDynamicQueueLimit) {
    stats_.record_drop();
    const Frame& shed = dynamic_queue_.back();
    trace_.emit(kernel_.now(), categories().dyn_drop, subject_of(shed),
                shed.id);
    dynamic_queue_.pop_back();  // shed the lowest-priority frame
  }
  if (started_ && !transmitting_) {
    const std::size_t segment = cfg_.static_slots + 1;
    arm_earlier(segment, next_start(segment, delivering_));
  }
}

Time FlexRayBus::next_start(std::size_t index, bool now_counts) const {
  const Time now = kernel_.now();
  const Time start = now - (now - origin_) % cycle_len_ +
                     static_cast<Duration>(index - 1) * static_slot_len_;
  const bool ahead = start > now || (now_counts && start == now);
  return ahead ? start : start + cycle_len_;  // else it comes round next cycle
}

std::size_t FlexRayBus::next_work(bool now_counts, Time& when) const {
  const std::size_t segment = cfg_.static_slots + 1;
  std::size_t next = 0;
  for (std::size_t index = 1; index <= segment; ++index) {
    const bool work = index < segment ? slot_buffer_[index].has_value()
                                      : !dynamic_queue_.empty();
    if (!work) continue;
    const Time start = next_start(index, now_counts);
    if (next == 0 || start < when) {
      next = index;
      when = start;
    }
  }
  return next;
}

void FlexRayBus::arm_earlier(std::size_t index, Time when) {
  if (when >= armed_at_) return;
  kernel_.cancel(armed_);  // a no-op while none is armed
  armed_index_ = index;
  armed_at_ = when;
  armed_ = kernel_.schedule_at(
      when,
      [this] {
        armed_at_ = sim::kForever;
        open(armed_index_);
      },
      sim::EventOrder::kHardware);
}

void FlexRayBus::advance(bool now_counts) {
  Time when = 0;
  const std::size_t index = next_work(now_counts, when);
  if (index == 0) return;  // sleep until a write
  if (when == kernel_.now()) {
    open(index);
  } else {
    arm_earlier(index, when);
  }
}

void FlexRayBus::open(std::size_t index) {
  if (index > cfg_.static_slots) {
    begin_dynamic_segment();
    return;
  }
  Frame frame = std::move(*slot_buffer_[index]);
  slot_buffer_[index].reset();
  frame.sent_at = kernel_.now();
  stats_.record_queueing_delay(kernel_.now() - frame.enqueued_at);
  trace_.emit(kernel_.now(), categories().static_tx, subject_of(frame),
              frame.id);
  transmitting_ = true;
  transmit(std::move(frame), kernel_.now() + static_slot_len_);
}

void FlexRayBus::transmit(Frame frame, Time done) {
  in_flight_.push_back(std::move(frame));
  kernel_.schedule_at(
      done,
      [this] {
        Frame f = std::move(in_flight_[in_flight_head_]);
        if (++in_flight_head_ == in_flight_.size()) {
          in_flight_.clear();
          in_flight_head_ = 0;
        }
        stats_.record_tx(f.sent_at, kernel_.now(), true);
        deliver(std::move(f));
        // After a static frame, look for the next slot: a frame the
        // delivery produced is still seen by a slot that starts now.
        if (transmitting_) {
          transmitting_ = false;
          advance(true);
        }
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
    trace_.emit(cursor, categories().dyn_tx, subject_of(frame), frame.id);
    const Time done = cursor + needed;
    transmit(std::move(frame), done);
    cursor = done;
  }
  dynamic_queue_.swap(deferred_);  // the drained queue is the next deferred_
  advance(false);  // the segment has begun: the next work is a later cycle's
}

void FlexRayBus::deliver(Frame frame) {
  if (fault_hook_) {
    const net::FaultVerdict verdict = fault_hook_(frame);
    if (verdict.drop) {
      stats_.record_drop();
      trace_.emit(kernel_.now(), categories().fault_drop, subject_of(frame),
                  frame.id);
      return;
    }
    // verdict.delay intentionally ignored: the slot schedule owns timing.
  }
  frame.delivered_at = kernel_.now();
  trace_.emit(kernel_.now(), categories().rx, subject_of(frame), frame.id);
  delivering_ = true;
  for (const auto& c : controllers_) {
    if (c->node_ != frame.source) c->deliver(frame);
  }
  delivering_ = false;
}

}  // namespace orte::flexray
