#include "ttp/ttp_bus.hpp"

#include <stdexcept>

namespace orte::ttp {

void TtpNode::send(Frame frame) {
  frame.source = index_;
  buffer_ = std::move(frame);
}

void TtpNode::babble(Time from, Time until) {
  babble_from_ = from;
  babble_until_ = until;
}

TtpBus::TtpBus(sim::Kernel& kernel, sim::Trace& trace, TtpConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)) {
  if (cfg_.slot_len <= 0) {
    throw std::invalid_argument("TTP slot length must be positive");
  }
}

TtpNode& TtpBus::attach(std::string name) {
  if (started_) throw std::logic_error("TtpBus::attach after start()");
  const int index = static_cast<int>(nodes_.size());
  nodes_.push_back(
      std::unique_ptr<TtpNode>(new TtpNode(*this, index, std::move(name))));
  membership_.push_back(true);
  return *nodes_.back();
}

void TtpBus::start() {
  if (started_) throw std::logic_error("TtpBus::start called twice");
  if (nodes_.empty()) throw std::logic_error("TtpBus::start with no nodes");
  started_ = true;
  kernel_.schedule_at(kernel_.now(), [this] { run_slot(0); },
                      sim::EventOrder::kHardware);
}

bool TtpBus::interference_at(Time t, int owner) {
  for (const auto& n : nodes_) {
    if (n->index_ == owner) continue;
    const bool babbling = t >= n->babble_from_ && t < n->babble_until_;
    if (!babbling) continue;
    if (cfg_.bus_guardian) {
      // The local guardian only opens the node's driver inside its own slot:
      // the out-of-slot attempt is blocked at the source.
      ++guardian_blocks_;
      trace_.emit(t, "ttp.guardian_block", n->name_);
      continue;
    }
    return true;
  }
  return false;
}

void TtpBus::run_slot(std::size_t owner) {
  const Time slot_start = kernel_.now();
  const Time slot_end = slot_start + cfg_.slot_len;
  const bool clean = !interference_at(slot_start, static_cast<int>(owner));

  // Every member broadcasts in its slot — a data frame if the application
  // wrote one, otherwise an empty heartbeat (N-frame). The buffer is latched
  // when transmission completes, so a write made during the slot still
  // catches this round (state-message update-in-place).
  kernel_.schedule_at(
      slot_end,
      [this, owner, slot_start, clean]() mutable {
        TtpNode& node = *nodes_[owner];
        Frame frame;
        if (node.buffer_.has_value()) {
          frame = std::move(*node.buffer_);
          node.buffer_.reset();
        } else {
          frame.name = node.name_ + ".heartbeat";
        }
        frame.source = static_cast<int>(owner);
        frame.id = static_cast<std::uint32_t>(owner);
        frame.sent_at = slot_start;
        stats_.record_tx(frame.sent_at, kernel_.now(), clean);
        if (clean) {
          frame.delivered_at = kernel_.now();
          trace_.emit(kernel_.now(), "ttp.rx", frame.name, frame.id);
          if (!membership_[owner]) {
            membership_[owner] = true;  // reintegration
            trace_.emit(kernel_.now(), "ttp.membership_gain",
                        nodes_[owner]->name_);
          }
          for (const auto& n : nodes_) {
            if (n->index_ != frame.source) n->deliver(frame);
          }
        } else {
          ++collisions_;
          trace_.emit(kernel_.now(), "ttp.collision", frame.name, frame.id);
          if (membership_[owner]) {
            membership_[owner] = false;
            ++membership_losses_;
            trace_.emit(kernel_.now(), "ttp.membership_loss",
                        nodes_[owner]->name_);
          }
        }
        run_slot((owner + 1) % nodes_.size());
      },
      sim::EventOrder::kHardware);
}

}  // namespace orte::ttp
