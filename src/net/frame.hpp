// Common frame and controller abstractions shared by the CAN, FlexRay, TTP
// and NoC substrates.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace orte::net {

using sim::Duration;
using sim::Time;

/// Immutable, cheaply-copyable frame payload. A frame fans out to every
/// receiving controller and often gets retained by several BSW layers
/// (COM staging, gateways, traces); copying a Payload bumps a refcount
/// instead of reallocating the byte buffer, so N-receiver delivery does no
/// per-receiver allocation. The bytes are frozen at construction — mutate by
/// building a new vector and reassigning.
class Payload {
 public:
  Payload() = default;
  Payload(std::vector<std::uint8_t> bytes)  // NOLINT: implicit by design
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<const std::vector<std::uint8_t>>(
                        std::move(bytes))) {}
  Payload(std::initializer_list<std::uint8_t> bytes)
      : Payload(std::vector<std::uint8_t>(bytes)) {}

  /// Replace the contents with `count` copies of `value` (vector idiom).
  void assign(std::size_t count, std::uint8_t value) {
    *this = Payload(std::vector<std::uint8_t>(count, value));
  }

  [[nodiscard]] std::size_t size() const { return data_ ? data_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    static const std::vector<std::uint8_t> kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  // NOLINTNEXTLINE: implicit by design — lets vector-typed sinks accept it.
  operator const std::vector<std::uint8_t>&() const { return bytes(); }
  std::uint8_t operator[](std::size_t i) const { return bytes()[i]; }
  [[nodiscard]] auto begin() const { return bytes().begin(); }
  [[nodiscard]] auto end() const { return bytes().end(); }

  /// True when both payloads share the same underlying buffer (zero-copy
  /// check for tests/benches; compare bytes() for byte equality).
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return data_ == other.data_;
  }
  /// Holders of the underlying buffer (diagnostics; 0 for the empty payload).
  [[nodiscard]] long use_count() const { return data_.use_count(); }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
};

/// A network frame at the data-link level. `id` is protocol-specific: CAN
/// identifier (lower = higher priority), FlexRay frame/slot id, TTP slot id,
/// NoC flow id. Copying a Frame shares the payload buffer (see Payload).
struct Frame {
  std::uint32_t id = 0;
  std::string name;  ///< For tracing; not on the wire.
  Payload payload;
  int source = -1;        ///< Sending node index.
  Time enqueued_at = 0;   ///< When the sender handed it to its controller.
  Time sent_at = 0;       ///< When transmission started on the medium.
  Time delivered_at = 0;  ///< When reception completed at listeners.

  [[nodiscard]] std::size_t size() const { return payload.size(); }
};

using RxCallback = std::function<void(const Frame&)>;

/// Interface every protocol controller implements towards the host
/// (ECU / IP core) software.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Queue a frame for transmission according to the protocol's arbitration.
  virtual void send(Frame frame) = 0;

  /// Register a listener invoked on every received frame.
  void on_receive(RxCallback cb) { rx_callbacks_.push_back(std::move(cb)); }

 protected:
  void notify_receive(const Frame& frame) const {
    for (const auto& cb : rx_callbacks_) cb(frame);
  }

 private:
  std::vector<RxCallback> rx_callbacks_;
};

}  // namespace orte::net
