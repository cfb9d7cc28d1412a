#include "bsw/com.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::bsw {

void pack_signal(std::vector<std::uint8_t>& payload, std::size_t bit_offset,
                 std::size_t bit_length, std::uint64_t value) {
  if (bit_length == 0 || bit_length > 64) {
    throw std::invalid_argument("signal bit length out of range");
  }
  if ((bit_offset + bit_length + 7) / 8 > payload.size()) {
    throw std::invalid_argument("signal does not fit the PDU payload");
  }
  for (std::size_t i = 0; i < bit_length; ++i) {
    const std::size_t bit = bit_offset + i;
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit % 8));
    if ((value >> i) & 1u) {
      payload[bit / 8] |= mask;
    } else {
      payload[bit / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

std::uint64_t unpack_signal(const std::vector<std::uint8_t>& payload,
                            std::size_t bit_offset, std::size_t bit_length) {
  if (bit_length == 0 || bit_length > 64) {
    throw std::invalid_argument("signal bit length out of range");
  }
  if ((bit_offset + bit_length + 7) / 8 > payload.size()) {
    throw std::invalid_argument("signal outside the PDU payload");
  }
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bit_length; ++i) {
    const std::size_t bit = bit_offset + i;
    if (payload[bit / 8] & (1u << (bit % 8))) value |= (1ULL << i);
  }
  return value;
}

Com::Com(sim::Kernel& kernel, sim::Trace& trace)
    : kernel_(kernel), trace_(trace) {}

void Com::add_tx_ipdu(IPduConfig cfg, net::Controller& controller) {
  if (started_) throw std::logic_error("Com::add_tx_ipdu after start()");
  if ((cfg.mode == TxMode::kPeriodic || cfg.mode == TxMode::kMixed) &&
      cfg.period <= 0) {
    throw std::invalid_argument("periodic I-PDU needs a period: " + cfg.name);
  }
  TxPdu pdu;
  pdu.controller = &controller;
  pdu.payload.assign(cfg.length_bytes, 0);
  const std::string name = cfg.name;
  pdu.cfg = std::move(cfg);
  if (!tx_.emplace(name, std::move(pdu)).second) {
    throw std::invalid_argument("duplicate tx I-PDU: " + name);
  }
}

void Com::add_rx_ipdu(IPduConfig cfg, net::Controller& controller) {
  if (started_) throw std::logic_error("Com::add_rx_ipdu after start()");
  RxPdu pdu;
  pdu.payload.assign(cfg.length_bytes, 0);
  const std::string name = cfg.name;
  const std::uint32_t frame_id = cfg.frame_id;
  pdu.cfg = std::move(cfg);
  if (!rx_.emplace(name, std::move(pdu)).second) {
    throw std::invalid_argument("duplicate rx I-PDU: " + name);
  }
  rx_by_frame_id_[frame_id] = name;
  // Subscribe once per controller; every rx PDU shares the dispatch path.
  if (std::find(subscribed_.begin(), subscribed_.end(), &controller) ==
      subscribed_.end()) {
    subscribed_.push_back(&controller);
    controller.on_receive([this](const net::Frame& f) { handle_rx(f); });
  }
}

void Com::add_signal(SignalConfig cfg) {
  const bool tx_side = tx_.find(cfg.ipdu) != tx_.end();
  const bool rx_side = rx_.find(cfg.ipdu) != rx_.end();
  if (!tx_side && !rx_side) {
    throw std::invalid_argument("signal references unknown I-PDU: " +
                                cfg.ipdu);
  }
  const std::string name = cfg.name;
  Signal sig;
  sig.cfg = std::move(cfg);
  if (!signals_.emplace(name, std::move(sig)).second) {
    throw std::invalid_argument("duplicate signal: " + name);
  }
}

void Com::start() {
  if (started_) throw std::logic_error("Com::start called twice");
  started_ = true;
  for (auto& [name, pdu] : tx_) {
    if (pdu.cfg.mode == TxMode::kPeriodic || pdu.cfg.mode == TxMode::kMixed) {
      TxPdu* p = &pdu;
      kernel_.schedule_periodic(
          kernel_.now() + p->cfg.offset, p->cfg.period,
          [this, p] { transmit(*p); }, sim::EventOrder::kKernel);
    }
  }
  bool any_timeout = false;
  for (const auto& [name, pdu] : rx_) {
    if (pdu.cfg.rx_timeout > 0) any_timeout = true;
  }
  if (any_timeout) {
    kernel_.schedule_periodic(
        kernel_.now() + sim::milliseconds(1), sim::milliseconds(1),
        [this] { check_timeouts(); }, sim::EventOrder::kObserver);
  }
}

void Com::send_signal(std::string_view name, std::uint64_t value) {
  auto it = signals_.find(name);
  if (it == signals_.end()) {
    throw std::invalid_argument("Com::send_signal: unknown signal");
  }
  Signal& sig = it->second;
  auto pit = tx_.find(sig.cfg.ipdu);
  if (pit == tx_.end()) {
    throw std::logic_error("Com::send_signal on an rx-side signal");
  }
  TxPdu& pdu = pit->second;
  pack_signal(pdu.payload, sig.cfg.bit_offset, sig.cfg.bit_length, value);
  pdu.dirty = true;
  if (sig.cfg.triggered && (pdu.cfg.mode == TxMode::kDirect ||
                            pdu.cfg.mode == TxMode::kMixed)) {
    transmit(pdu);
  }
}

void Com::on_signal(std::string_view name, SignalCallback cb) {
  auto it = signals_.find(name);
  if (it == signals_.end()) {
    throw std::invalid_argument("Com::on_signal: unknown signal");
  }
  it->second.callbacks.push_back(std::move(cb));
}

void Com::transmit(TxPdu& pdu) {
  net::Frame frame;
  frame.id = pdu.cfg.frame_id;
  frame.name = pdu.cfg.name;
  frame.payload = pdu.payload;
  frame.enqueued_at = kernel_.now();
  pdu.dirty = false;
  ++pdus_sent_;
  trace_.emit(kernel_.now(), "com.tx", pdu.cfg.name, frame.id);
  pdu.controller->send(std::move(frame));
}

void Com::handle_rx(const net::Frame& frame) {
  auto idit = rx_by_frame_id_.find(frame.id);
  if (idit == rx_by_frame_id_.end()) return;  // not for us
  RxPdu& pdu = rx_.find(idit->second)->second;
  // Stage into the PDU's own (mutable) buffer; reuses capacity, so steady
  // state does no allocation. The frame's shared payload stays untouched.
  pdu.payload.assign(frame.payload.begin(), frame.payload.end());
  pdu.payload.resize(pdu.cfg.length_bytes, 0);
  pdu.last_rx = kernel_.now();
  pdu.timed_out = false;
  ++pdus_received_;
  trace_.emit(kernel_.now(), "com.rx", pdu.cfg.name, frame.id);
  // Update and notify every signal mapped onto this PDU.
  for (auto& [name, sig] : signals_) {
    if (sig.cfg.ipdu != pdu.cfg.name) continue;
    const std::uint64_t value =
        unpack_signal(pdu.payload, sig.cfg.bit_offset, sig.cfg.bit_length);
    for (const auto& cb : sig.callbacks) cb(value);
  }
}

void Com::check_timeouts() {
  for (auto& [name, pdu] : rx_) {
    if (pdu.cfg.rx_timeout <= 0 || pdu.timed_out) continue;
    const Time deadline =
        (pdu.last_rx < 0 ? pdu.cfg.rx_timeout
                         : pdu.last_rx + pdu.cfg.rx_timeout);
    if (kernel_.now() > deadline) {
      pdu.timed_out = true;
      ++rx_timeouts_;
      trace_.emit(kernel_.now(), "com.rx_timeout", name);
      if (timeout_cb_) timeout_cb_(name);
    }
  }
}

}  // namespace orte::bsw
