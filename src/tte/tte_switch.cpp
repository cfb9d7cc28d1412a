#include "tte/tte_switch.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::tte {

namespace {
constexpr Duration kSwitchLatency = sim::microseconds(2);  // forwarding delay
}  // namespace

void TteEndpoint::send(std::uint32_t flow, std::vector<std::uint8_t> payload) {
  switch_->submit(index_, flow, std::move(payload));
}

TteSwitch::TteSwitch(sim::Kernel& kernel, sim::Trace& trace, TteConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)) {
  if (cfg_.link_bandwidth_bps <= 0) {
    throw std::invalid_argument("TTE link bandwidth must be positive");
  }
  bit_time_ = 1'000'000'000 / cfg_.link_bandwidth_bps;
}

TteEndpoint& TteSwitch::attach(std::string name) {
  if (started_) throw std::logic_error("TteSwitch::attach after start()");
  const int index = static_cast<int>(endpoints_.size());
  endpoints_.push_back(std::unique_ptr<TteEndpoint>(
      new TteEndpoint(*this, index, std::move(name))));
  egress_.emplace_back();
  return *endpoints_.back();
}

void TteSwitch::add_flow(TteFlow flow) {
  if (started_) throw std::logic_error("TteSwitch::add_flow after start()");
  if (flow.source < 0 ||
      flow.source >= static_cast<int>(endpoints_.size()) ||
      flow.destination < 0 ||
      flow.destination >= static_cast<int>(endpoints_.size())) {
    throw std::invalid_argument("TTE flow references unknown endpoint");
  }
  if (find_flow(flow.id) != nullptr) {
    throw std::invalid_argument("duplicate TTE flow id");
  }
  if (flow.cls == TrafficClass::kTimeTriggered &&
      (flow.period <= 0 || flow.offset < 0 || flow.offset >= flow.period)) {
    throw std::invalid_argument("TT flow needs offset within a period");
  }
  flows_.push_back(std::move(flow));
}

const TteFlow* TteSwitch::find_flow(std::uint32_t id) const {
  for (const auto& f : flows_) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

const sim::Stats& TteSwitch::flow_latency_us(std::uint32_t flow) const {
  auto it = latency_us_.find(flow);
  if (it == latency_us_.end()) {
    throw std::invalid_argument("no latency samples for flow");
  }
  return it->second;
}

void TteSwitch::start() {
  if (started_) throw std::logic_error("TteSwitch::start called twice");
  started_ = true;
  for (const auto& flow : flows_) {
    if (flow.cls != TrafficClass::kTimeTriggered) continue;
    const TteFlow* f = &flow;
    kernel_.schedule_periodic(
        kernel_.now() + f->offset, f->period, [this, f] { dispatch_tt(*f); },
        sim::EventOrder::kHardware);
  }
}

void TteSwitch::submit(int source, std::uint32_t flow_id,
                       std::vector<std::uint8_t> payload) {
  const TteFlow* flow = find_flow(flow_id);
  if (flow == nullptr) throw std::invalid_argument("unknown TTE flow");
  if (flow->source != source) {
    throw std::logic_error("endpoint sends on a flow it does not own");
  }
  if (flow->cls == TrafficClass::kTimeTriggered) {
    // State semantics: the schedule transmits the latest value.
    tt_buffer_[flow_id] = std::move(payload);
    return;
  }
  TteFrame frame;
  frame.flow = flow_id;
  frame.payload = std::move(payload);
  frame.enqueued_at = kernel_.now();
  // Ingress serialization + switch forwarding latency, then egress queueing.
  // (Compute the delay before moving the frame into the closure — argument
  // evaluation order is unspecified.)
  const Duration ingress = tx_time(frame.payload.size()) + kSwitchLatency;
  kernel_.schedule_in(ingress,
                      [this, flow, frame = std::move(frame)]() mutable {
                        to_egress(*flow, std::move(frame));
                      },
                      sim::EventOrder::kHardware);
}

void TteSwitch::dispatch_tt(const TteFlow& flow) {
  auto it = tt_buffer_.find(flow.id);
  if (it == tt_buffer_.end() || !it->second.has_value()) return;
  TteFrame frame;
  frame.flow = flow.id;
  frame.payload = std::move(*it->second);
  it->second.reset();
  frame.enqueued_at = kernel_.now();
  trace_.emit(kernel_.now(), "tte.tt_dispatch", std::to_string(flow.id));
  const Duration ingress = tx_time(frame.payload.size()) + kSwitchLatency;
  kernel_.schedule_in(ingress,
                      [this, f = &flow, frame = std::move(frame)]() mutable {
                        to_egress(*f, std::move(frame));
                      },
                      sim::EventOrder::kHardware);
}

void TteSwitch::to_egress(const TteFlow& flow, TteFrame frame) {
  auto& port = egress_[static_cast<std::size_t>(flow.destination)];
  (flow.cls == TrafficClass::kTimeTriggered ? port.tt : port.be)
      .push_back(std::move(frame));
  serve_egress(static_cast<std::size_t>(flow.destination));
}

void TteSwitch::serve_egress(std::size_t port_index) {
  auto& port = egress_[port_index];
  if (port.busy) return;  // shuffling: the in-flight frame completes first
  std::deque<TteFrame>* queue = nullptr;
  if (!port.tt.empty()) {
    queue = &port.tt;
  } else if (!port.be.empty()) {
    queue = &port.be;
  } else {
    return;
  }
  TteFrame frame = std::move(queue->front());
  queue->pop_front();
  port.busy = true;
  const Duration egress_tx = tx_time(frame.payload.size());
  kernel_.schedule_in(
      egress_tx,
      [this, port_index, frame = std::move(frame)] {
        egress_[port_index].busy = false;
        latency_us_[frame.flow].add(
            sim::to_us(kernel_.now() - frame.enqueued_at));
        ++delivered_;
        trace_.emit(kernel_.now(), "tte.rx", std::to_string(frame.flow));
        serve_egress(port_index);
      },
      sim::EventOrder::kHardware);
}

}  // namespace orte::tte
