#include "can/can_bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::can {

// --- CanController -----------------------------------------------------------

void CanController::send(Frame frame) {
  if (frame.size() > 8) {
    throw std::invalid_argument("CAN payload exceeds 8 bytes");
  }
  frame.source = node_;
  push_sorted(std::move(frame));
  bus_->notify_pending();
}

void CanController::push_sorted(Frame frame) {
  // Priority queue by identifier; FIFO among equal ids (insertion after the
  // last equal id preserves sender ordering).
  auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Frame& f) {
    return f.id > frame.id;
  });
  queue_.insert(it, std::move(frame));
}

Frame CanController::pop_head() {
  Frame f = std::move(queue_.front());
  queue_.pop_front();
  return f;
}

// --- CanBus ------------------------------------------------------------------

CanBus::CanBus(sim::Kernel& kernel, sim::Trace& trace, CanConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)) {
  if (cfg_.bitrate_bps <= 0) {
    throw std::invalid_argument("CAN bitrate must be positive");
  }
}

CanController& CanBus::attach() {
  const int node = static_cast<int>(controllers_.size());
  controllers_.push_back(
      std::unique_ptr<CanController>(new CanController(*this, node)));
  return *controllers_.back();
}

Duration frame_transmission_time(std::size_t bytes, std::int64_t bitrate_bps) {
  // Standard-format data frame, worst-case bit stuffing (Davis et al.,
  // "Controller Area Network schedulability analysis", RTSJ 2007):
  //   C = (55 + 10 * n) * tau_bit   for n data bytes.
  const Duration bit_time = 1'000'000'000 / bitrate_bps;
  return static_cast<Duration>(55 + 10 * static_cast<std::int64_t>(bytes)) *
         bit_time;
}

Duration CanBus::frame_time(std::size_t bytes) const {
  return frame_transmission_time(bytes, cfg_.bitrate_bps);
}

void CanBus::notify_pending() { try_arbitrate(); }

void CanBus::try_arbitrate() {
  if (busy_ || arbitration_scheduled_) return;
  // Defer the arbitration decision to the END of the current instant
  // (observer order): frames enqueued by different nodes within the same
  // simulated instant all take part, as they would within one bit time on
  // the wire — regardless of the order their software happened to run in.
  arbitration_scheduled_ = true;
  kernel_.schedule_at(kernel_.now(),
                      [this] {
                        arbitration_scheduled_ = false;
                        arbitrate();
                      },
                      sim::EventOrder::kObserver);
}

void CanBus::arbitrate() {
  if (busy_) return;
  // Among all controllers with a pending frame, the lowest identifier wins;
  // ties (same id from two nodes — a config error on real CAN) resolve by
  // node index for determinism.
  CanController* winner = nullptr;
  for (const auto& c : controllers_) {
    const Frame* head = c->head();
    if (head == nullptr) continue;
    if (winner == nullptr || head->id < winner->head()->id) {
      winner = c.get();
    }
  }
  if (winner == nullptr) return;

  busy_ = true;
  in_flight_ = winner->pop_head();
  in_flight_source_ = in_flight_.source;
  in_flight_.sent_at = kernel_.now();
  stats_.record_queueing_delay(kernel_.now() - in_flight_.enqueued_at);
  trace_.emit(kernel_.now(), "can.tx_start", in_flight_.name, in_flight_.id);
  kernel_.schedule_in(frame_time(in_flight_.size()), [this] { finish_tx(); },
                      sim::EventOrder::kHardware);
}

void CanBus::finish_tx() {
  busy_ = false;
  // The interframe space is folded into the frame time: the bus is idle now.
  stats_.record_tx(in_flight_.sent_at, kernel_.now(), true);
  Frame frame = std::move(in_flight_);
  const int source = in_flight_source_;
  net::FaultVerdict verdict;
  if (fault_hook_) verdict = fault_hook_(frame);
  if (verdict.drop) {
    // The frame made it over the wire but is injected away before any
    // listener sees it (receiver-side CRC reject without the error-frame
    // broadcast — the "silent loss" half of the fault space).
    stats_.record_drop();
    trace_.emit(kernel_.now(), "can.fault_drop", frame.name, frame.id);
  } else if (verdict.delay > 0) {
    trace_.emit(kernel_.now(), "can.fault_delay", frame.name, verdict.delay);
    kernel_.schedule_in(
        verdict.delay,
        [this, frame = std::move(frame), source]() mutable {
          frame.delivered_at = kernel_.now();
          trace_.emit(kernel_.now(), "can.rx", frame.name, frame.id);
          for (const auto& c : controllers_) {
            if (c->node_ != source) c->deliver(frame);
          }
        },
        sim::EventOrder::kHardware);
  } else {
    frame.delivered_at = kernel_.now();
    trace_.emit(kernel_.now(), "can.rx", frame.name, frame.id);
    for (const auto& c : controllers_) {
      if (c->node_ != source) c->deliver(frame);
    }
  }
  try_arbitrate();
}

}  // namespace orte::can
