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
    : kernel_(kernel),
      trace_(trace),
      tx_category_(trace.intern_category("com.tx")),
      rx_category_(trace.intern_category("com.rx")) {}

void Com::add_tx_ipdu(IPduConfig cfg, net::Controller& controller) {
  TxPdu pdu;
  pdu.controller = &controller;
  pdu.subject = trace_.intern_subject(cfg.name);
  pdu.payload.assign(cfg.length_bytes, 0);
  const std::string name = cfg.name;
  pdu.cfg = std::move(cfg);
  if (!tx_.emplace(name, std::move(pdu)).second) {
    throw std::invalid_argument("duplicate tx I-PDU: " + name);
  }
}

void Com::add_rx_ipdu(IPduConfig cfg, net::Controller& controller) {
  RxPdu pdu;
  pdu.subject = trace_.intern_subject(cfg.name);
  pdu.payload.assign(cfg.length_bytes, 0);
  const std::string name = cfg.name;
  const std::uint32_t frame_id = cfg.frame_id;
  pdu.cfg = std::move(cfg);
  const auto [it, inserted] = rx_.emplace(name, std::move(pdu));
  if (!inserted) throw std::invalid_argument("duplicate rx I-PDU: " + name);
  rx_by_frame_id_[frame_id] = &it->second;
  // Subscribe once per controller; every rx PDU shares the dispatch path.
  if (std::find(subscribed_.begin(), subscribed_.end(), &controller) ==
      subscribed_.end()) {
    subscribed_.push_back(&controller);
    controller.on_receive([this](const net::Frame& f) { handle_rx(f); });
  }
}

void Com::add_signal(SignalConfig cfg) {
  const auto tx = tx_.find(cfg.ipdu);
  const auto rx = rx_.find(cfg.ipdu);
  if (tx == tx_.end() && rx == rx_.end()) {
    throw std::invalid_argument("signal references unknown I-PDU: " +
                                cfg.ipdu);
  }
  const auto [it, inserted] = signals_.try_emplace(cfg.name);
  if (!inserted) throw std::invalid_argument("duplicate signal: " + cfg.name);
  Signal& sig = it->second;
  sig.cfg = std::move(cfg);
  if (tx != tx_.end()) sig.tx = &tx->second;
  if (rx != rx_.end()) {
    auto& list = rx->second.signals;
    list.insert(std::upper_bound(list.begin(), list.end(), &sig,
                                 [](const Signal* a, const Signal* b) {
                                   return a->cfg.name < b->cfg.name;
                                 }),
                &sig);
  }
}

void Com::send_signal(std::string_view name, std::uint64_t value) {
  auto it = signals_.find(name);
  if (it == signals_.end()) {
    throw std::invalid_argument("Com::send_signal: unknown signal");
  }
  Signal& sig = it->second;
  if (sig.tx == nullptr) {
    throw std::logic_error("Com::send_signal on an rx-side signal");
  }
  pack_signal(sig.tx->payload, sig.cfg.bit_offset, sig.cfg.bit_length, value);
  transmit(*sig.tx);
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
  ++pdus_sent_;
  trace_.emit(kernel_.now(), tx_category_, pdu.subject, frame.id);
  pdu.controller->send(std::move(frame));
}

void Com::handle_rx(const net::Frame& frame) {
  auto idit = rx_by_frame_id_.find(frame.id);
  if (idit == rx_by_frame_id_.end()) return;  // not for us
  RxPdu& pdu = *idit->second;
  // Stage into the PDU's own (mutable) buffer; reuses capacity, so steady
  // state does no allocation. The frame's shared payload stays untouched.
  pdu.payload.assign(frame.payload.begin(), frame.payload.end());
  pdu.payload.resize(pdu.cfg.length_bytes, 0);
  ++pdus_received_;
  trace_.emit(kernel_.now(), rx_category_, pdu.subject, frame.id);
  // Update and notify every signal mapped onto this PDU.
  for (const Signal* sig : pdu.signals) {
    const std::uint64_t value =
        unpack_signal(pdu.payload, sig->cfg.bit_offset, sig->cfg.bit_length);
    for (const auto& cb : sig->callbacks) cb(value);
  }
}

}  // namespace orte::bsw
