// Network-on-Chip simulator for the integrated MPSoC architecture (§4).
//
// Each IP core attaches through a network interface (NI). Two arbitration
// modes realize the paper's contrast:
//  * kTdma  — every core owns a fixed slot per NoC period; injection outside
//    the slot is impossible (per-core guardian is implicit in the NI), so the
//    four composability requirements hold by construction: precise temporal
//    interface, stability of prior services, non-interfering interactions,
//    error containment.
//  * kFcfs  — a shared crossbar/bus served first-come-first-served: the
//    unprotected baseline where a babbling core starves its neighbours.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::noc {

using sim::Duration;
using sim::Time;

struct NocMessage {
  int source = -1;
  int destination = -1;  ///< Core index; -1 = broadcast to all other cores.
  std::string name;
  std::size_t bytes = 0;  ///< Wire size (payload + protocol overhead).
  net::Payload payload;   ///< Application data (middleware use); shared.
  /// Injection priority at the NI: lower = more urgent; the default appends
  /// FIFO. The CAN overlay maps CAN identifiers here.
  std::uint32_t priority = UINT32_MAX;
  Time enqueued_at = 0;
  Time delivered_at = 0;
};

enum class Arbitration {
  kTdma,  ///< Composable: one slot per core per period.
  kFcfs,  ///< Baseline: shared medium, first-come-first-served.
};

struct NocConfig {
  std::string name = "noc0";
  Arbitration arbitration = Arbitration::kTdma;
  std::int64_t link_bandwidth_bps = 100'000'000;  ///< Serialization rate.
  Duration slot_len = sim::microseconds(10);      ///< TDMA slot per core.
};

class Noc;

/// Core-side network interface. All inter-core communication goes through
/// here — cores have no shared memory (§4: "communicate solely by the
/// exchange of messages").
class NetworkInterface {
 public:
  using RxCallback = std::function<void(const NocMessage&)>;

  /// Queue a message for injection; honours the arbitration mode.
  void send(NocMessage msg);
  void on_receive(RxCallback cb) { rx_.push_back(std::move(cb)); }

  [[nodiscard]] int core() const { return core_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// End-to-end NI-to-NI latencies (microseconds) of delivered messages.
  [[nodiscard]] const sim::Stats& rx_latency() const { return rx_latency_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }

 private:
  friend class Noc;
  NetworkInterface(Noc& noc, int core, std::string name)
      : noc_(&noc), core_(core), name_(std::move(name)) {}
  void deliver(const NocMessage& msg) {
    ++received_;
    rx_latency_.add(sim::to_us(msg.delivered_at - msg.enqueued_at));
    for (const auto& cb : rx_) cb(msg);
  }

  Noc* noc_;
  int core_;
  std::string name_;
  std::deque<NocMessage> queue_;
  std::vector<RxCallback> rx_;
  sim::Stats rx_latency_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

class Noc {
 public:
  Noc(sim::Kernel& kernel, sim::Trace& trace, NocConfig cfg);
  Noc(const Noc&) = delete;
  Noc& operator=(const Noc&) = delete;

  NetworkInterface& attach(std::string core_name);

  /// Start arbitration (TDMA slot rotation). Call once after attaches.
  void start();

  /// Inject a babbling-idiot fault: `core` floods the NoC with `burst_bytes`
  /// messages every `interval` during [from, until).
  void inject_babble(int core, std::size_t burst_bytes, Duration interval,
                     Time from, Time until);

  [[nodiscard]] Duration period() const {
    return static_cast<Duration>(interfaces_.size()) * cfg_.slot_len;
  }
  [[nodiscard]] Duration tx_time(std::size_t bytes) const {
    return static_cast<Duration>(bytes) * 8 * bit_time_;
  }
  /// Max message bytes that fit one TDMA slot.
  [[nodiscard]] std::size_t slot_capacity_bytes() const {
    return static_cast<std::size_t>(cfg_.slot_len / (8 * bit_time_));
  }
  [[nodiscard]] const NocConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] const std::vector<std::unique_ptr<NetworkInterface>>&
  interfaces() const {
    return interfaces_;
  }

 private:
  friend class NetworkInterface;

  void notify_pending(int core);
  void run_tdma_slot(std::size_t core);
  void try_fcfs();
  void deliver(NocMessage msg);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  NocConfig cfg_;
  Duration bit_time_ = 0;  ///< Set once the rate is checked.
  std::vector<std::unique_ptr<NetworkInterface>> interfaces_;
  bool started_ = false;
  bool link_busy_ = false;  ///< FCFS mode only.
  std::uint64_t delivered_ = 0;
};

}  // namespace orte::noc
