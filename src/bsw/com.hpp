// AUTOSAR-COM-style communication services.
//
// Applications (via the RTE) deal in *signals*; COM packs signals into
// I-PDUs, hands them to a bus controller, and unpacks + notifies on
// reception. Supported per AUTOSAR COM:
//  * bit-level signal packing (LSB-first within the PDU payload),
//  * transmission modes: periodic, direct (event-triggered on send), mixed,
//  * reception deadline monitoring (alive timeout) with a miss callback —
//    the COM-level error-handling hook §2 requires ("communication errors").
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

using sim::Duration;
using sim::Time;

enum class TxMode {
  kPeriodic,  ///< Sent every period regardless of signal writes.
  kDirect,    ///< Sent immediately when a triggered signal is written.
  kMixed,     ///< Both.
};

struct IPduConfig {
  std::string name;
  std::uint32_t frame_id = 0;
  std::size_t length_bytes = 8;
  TxMode mode = TxMode::kPeriodic;
  Duration period = 0;          ///< Required for periodic/mixed.
  Time offset = 0;              ///< Phase of the periodic transmission.
  Duration rx_timeout = 0;      ///< 0 = no deadline monitoring (rx side).
};

struct SignalConfig {
  std::string name;
  std::string ipdu;          ///< Owning I-PDU.
  std::size_t bit_offset = 0;
  std::size_t bit_length = 8;  ///< 1..64.
  bool triggered = false;      ///< Writing it fires a direct transmission.
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
  using TimeoutCallback = std::function<void(const std::string& ipdu)>;

  Com(sim::Kernel& kernel, sim::Trace& trace);

  /// Declare a transmit I-PDU bound to a bus controller.
  void add_tx_ipdu(IPduConfig cfg, net::Controller& controller);
  /// Declare a receive I-PDU; COM subscribes to the controller's RX path.
  void add_rx_ipdu(IPduConfig cfg, net::Controller& controller);
  /// Declare a signal within a previously declared I-PDU (tx or rx side).
  void add_signal(SignalConfig cfg);

  /// Arm periodic transmissions and timeout monitors. Call once.
  void start();

  /// Write a signal value (tx side). Direct/mixed triggered signals transmit
  /// the owning PDU immediately.
  void send_signal(std::string_view name, std::uint64_t value);
  /// Invoke `cb` with the signal's value on every reception (rx side).
  void on_signal(std::string_view name, SignalCallback cb);
  void on_rx_timeout(TimeoutCallback cb) { timeout_cb_ = std::move(cb); }

  [[nodiscard]] std::uint64_t pdus_sent() const { return pdus_sent_; }
  [[nodiscard]] std::uint64_t pdus_received() const { return pdus_received_; }
  [[nodiscard]] std::uint64_t rx_timeouts() const { return rx_timeouts_; }

 private:
  struct TxPdu {
    IPduConfig cfg;
    net::Controller* controller = nullptr;
    std::vector<std::uint8_t> payload;
    bool dirty = false;  ///< Written since last transmission.
  };
  struct RxPdu {
    IPduConfig cfg;
    std::vector<std::uint8_t> payload;
    Time last_rx = -1;
    bool timed_out = false;
  };
  struct Signal {
    SignalConfig cfg;
    std::vector<SignalCallback> callbacks;
  };

  void transmit(TxPdu& pdu);
  void handle_rx(const net::Frame& frame);
  void check_timeouts();

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  std::map<std::string, TxPdu, std::less<>> tx_;
  std::map<std::string, RxPdu, std::less<>> rx_;
  std::map<std::uint32_t, std::string> rx_by_frame_id_;
  std::map<std::string, Signal, std::less<>> signals_;
  std::vector<net::Controller*> subscribed_;
  TimeoutCallback timeout_cb_;
  bool started_ = false;
  std::uint64_t pdus_sent_ = 0;
  std::uint64_t pdus_received_ = 0;
  std::uint64_t rx_timeouts_ = 0;
};

}  // namespace orte::bsw
