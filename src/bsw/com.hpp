// AUTOSAR-COM-style communication services.
//
// Applications (via the RTE) deal in *signals*; COM packs signals into
// I-PDUs, hands them to a bus controller, and unpacks + notifies on
// reception. Supported per AUTOSAR COM:
//  * bit-level signal packing (LSB-first within the PDU payload),
//  * direct transmission: every signal write sends its whole I-PDU.
// Missing data is detected above COM, by alive supervision of the producer
// (vfb::System with DeploymentPlan::alive_supervision).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::bsw {

struct IPduConfig {
  std::string name;
  std::uint32_t frame_id = 0;
  std::size_t length_bytes = 8;
};

struct SignalConfig {
  std::string name;
  std::string ipdu;          ///< Owning I-PDU.
  std::size_t bit_offset = 0;
  std::size_t bit_length = 8;  ///< 1..64.
};

/// Pack `value` into `bits` [offset, offset+length) of `payload`, LSB first.
void pack_signal(std::vector<std::uint8_t>& payload, std::size_t bit_offset,
                 std::size_t bit_length, std::uint64_t value);
/// Extract the signal value; zero-extended.
std::uint64_t unpack_signal(const std::vector<std::uint8_t>& payload,
                            std::size_t bit_offset, std::size_t bit_length);

class Com {
 public:
  using SignalCallback = std::function<void(std::uint64_t)>;

  Com(sim::Kernel& kernel, sim::Trace& trace);

  /// Declare a transmit I-PDU bound to a bus controller.
  void add_tx_ipdu(IPduConfig cfg, net::Controller& controller);
  /// Declare a receive I-PDU; COM subscribes to the controller's RX path.
  void add_rx_ipdu(IPduConfig cfg, net::Controller& controller);
  /// Declare a signal within a previously declared I-PDU (tx or rx side).
  void add_signal(SignalConfig cfg);

  /// Write a signal value (tx side) and transmit the owning PDU.
  void send_signal(std::string_view name, std::uint64_t value);
  /// Invoke `cb` with the signal's value on every reception (rx side).
  void on_signal(std::string_view name, SignalCallback cb);

  [[nodiscard]] std::uint64_t pdus_sent() const { return pdus_sent_; }
  [[nodiscard]] std::uint64_t pdus_received() const { return pdus_received_; }

 private:
  struct Signal;
  struct TxPdu {
    IPduConfig cfg;
    sim::TraceId subject = sim::kNoTraceId;  ///< The PDU name, interned.
    net::Controller* controller = nullptr;
    std::vector<std::uint8_t> payload;
  };
  struct RxPdu {
    IPduConfig cfg;
    sim::TraceId subject = sim::kNoTraceId;  ///< The PDU name, interned.
    std::vector<std::uint8_t> payload;
    std::vector<Signal*> signals;  ///< Notified in ascending name order.
  };
  struct Signal {
    SignalConfig cfg;
    TxPdu* tx = nullptr;  ///< Owning PDU on the tx side, else null.
    std::vector<SignalCallback> callbacks;
  };

  void transmit(TxPdu& pdu);
  void handle_rx(const net::Frame& frame);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  sim::TraceId tx_category_;  ///< "com.tx"
  sim::TraceId rx_category_;  ///< "com.rx"
  // Map nodes never move, so signals and the frame-id index hold pointers.
  std::map<std::string, TxPdu, std::less<>> tx_;
  std::map<std::string, RxPdu, std::less<>> rx_;
  std::map<std::uint32_t, RxPdu*> rx_by_frame_id_;
  std::map<std::string, Signal, std::less<>> signals_;
  std::vector<net::Controller*> subscribed_;
  std::uint64_t pdus_sent_ = 0;
  std::uint64_t pdus_received_ = 0;
};

}  // namespace orte::bsw
