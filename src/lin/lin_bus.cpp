#include "lin/lin_bus.hpp"

#include <stdexcept>

namespace orte::lin {

namespace {
constexpr std::uint8_t kMaxFrameId = 63;
// Break + sync + protected identifier: 34 bit times nominal.
constexpr std::int64_t kHeaderBits = 34;
}  // namespace

void LinNode::send(Frame frame) {
  if (frame.id > kMaxFrameId) {
    throw std::invalid_argument("LIN frame id exceeds 63");
  }
  if (frame.size() == 0 || frame.size() > 8) {
    throw std::invalid_argument("LIN response must be 1..8 bytes");
  }
  frame.source = index_;
  bus_->store_response(index_, std::move(frame));
}

LinBus::LinBus(sim::Kernel& kernel, sim::Trace& trace, LinConfig cfg)
    : kernel_(kernel),
      trace_(trace),
      cfg_(std::move(cfg)),
      responses_(kMaxFrameId + 1) {
  if (cfg_.bitrate_bps <= 0) {
    throw std::invalid_argument("LIN bitrate must be positive");
  }
  bit_time_ = 1'000'000'000 / cfg_.bitrate_bps;
}

LinNode& LinBus::attach(std::string name) {
  if (started_) throw std::logic_error("LinBus::attach after start()");
  const int index = static_cast<int>(nodes_.size());
  nodes_.push_back(
      std::unique_ptr<LinNode>(new LinNode(*this, index, std::move(name))));
  return *nodes_.back();
}

void LinBus::set_schedule(std::vector<LinScheduleEntry> schedule) {
  for (const auto& e : schedule) {
    if (e.frame_id > kMaxFrameId) {
      throw std::invalid_argument("schedule entry id exceeds 63");
    }
    if (e.bytes == 0 || e.bytes > 8) {
      throw std::invalid_argument("schedule entry response must be 1..8 B");
    }
  }
  schedule_ = std::move(schedule);
}

Duration LinBus::frame_time(std::size_t bytes) const {
  // Response: each byte is 10 bits (start+8+stop) plus the checksum byte.
  return (kHeaderBits +
          10 * (static_cast<std::int64_t>(bytes) + 1)) *
         bit_time_;
}

Duration LinBus::slot_time(const LinScheduleEntry& e) const {
  if (e.slot > 0) return e.slot;
  return frame_time(e.bytes) * 14 / 10;  // LIN's 1.4x duration budget
}

Duration LinBus::cycle_time() const {
  Duration t = 0;
  for (const auto& e : schedule_) t += slot_time(e);
  return t;
}

void LinBus::start() {
  if (started_) throw std::logic_error("LinBus::start called twice");
  if (nodes_.empty()) throw std::logic_error("LinBus needs a master node");
  if (schedule_.empty()) throw std::logic_error("LinBus schedule is empty");
  for (const auto& e : schedule_) {
    if (e.publisher < 0 || e.publisher >= static_cast<int>(nodes_.size())) {
      throw std::logic_error("schedule entry publisher out of range");
    }
  }
  started_ = true;
  kernel_.schedule_at(kernel_.now(), [this] { run_slot(0); },
                      sim::EventOrder::kHardware);
}

void LinBus::store_response(int node, Frame frame) {
  // A node may only publish ids the schedule assigns to it.
  for (const auto& e : schedule_) {
    if (e.frame_id == frame.id && e.publisher == node) {
      responses_[frame.id] = std::move(frame);
      return;
    }
  }
  throw std::logic_error("node publishes a LIN id it does not own");
}

void LinBus::run_slot(std::size_t index) {
  const LinScheduleEntry& entry = schedule_[index];
  const Time slot_start = kernel_.now();
  const Time slot_end = slot_start + slot_time(entry);
  const Time frame_end = slot_start + frame_time(entry.bytes);

  LinNode& publisher = *nodes_[static_cast<std::size_t>(entry.publisher)];
  const bool alive = slot_start < publisher.crash_time_;
  // The response is latched when its transmission completes, so data
  // published during the header/response window still catches this slot.
  kernel_.schedule_at(
      frame_end,
      [this, alive, slot_start, id = entry.frame_id,
       publisher_index = entry.publisher] {
        if (!alive || !responses_[id].has_value()) {
          // Header went out, nobody answered: a detectable no-response slot.
          ++no_responses_;
          trace_.emit(kernel_.now(), "lin.no_response",
                      nodes_[static_cast<std::size_t>(publisher_index)]->name(),
                      id);
          return;
        }
        // State semantics: the publisher answers every poll with its latest
        // value (the buffer is latched, not consumed).
        Frame frame = *responses_[id];
        frame.sent_at = slot_start;
        frame.delivered_at = kernel_.now();
        stats_.record_tx(frame.sent_at, kernel_.now(), true);
        trace_.emit(kernel_.now(), "lin.rx", frame.name, frame.id);
        for (const auto& n : nodes_) {
          if (n->index() != frame.source) n->deliver(frame);
        }
      },
      sim::EventOrder::kHardware);
  kernel_.schedule_at(slot_end,
                      [this, next = (index + 1) % schedule_.size()] {
                        run_slot(next);
                      },
                      sim::EventOrder::kHardware);
}

}  // namespace orte::lin
