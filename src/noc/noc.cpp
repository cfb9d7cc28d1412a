#include "noc/noc.hpp"

#include <stdexcept>

namespace orte::noc {

void NetworkInterface::send(NocMessage msg) {
  msg.source = core_;
  msg.enqueued_at = noc_->kernel_.now();
  if (noc_->cfg_.arbitration == Arbitration::kTdma &&
      msg.bytes > noc_->slot_capacity_bytes()) {
    throw std::invalid_argument("NoC message exceeds TDMA slot capacity");
  }
  ++sent_;
  if (msg.priority == UINT32_MAX) {
    queue_.push_back(std::move(msg));
  } else {
    // Priority-queued NI: insert before the first strictly-lower-priority
    // entry; stable among equals and ahead of all FIFO (UINT32_MAX) traffic
    // only when their priority value says so.
    auto it = queue_.begin();
    while (it != queue_.end() && it->priority <= msg.priority) ++it;
    queue_.insert(it, std::move(msg));
  }
  noc_->notify_pending(core_);
}

Noc::Noc(sim::Kernel& kernel, sim::Trace& trace, NocConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)) {
  if (cfg_.link_bandwidth_bps <= 0 || cfg_.slot_len <= 0) {
    throw std::invalid_argument("NoC config invalid");
  }
  bit_time_ = 1'000'000'000 / cfg_.link_bandwidth_bps;
}

NetworkInterface& Noc::attach(std::string core_name) {
  if (started_) throw std::logic_error("Noc::attach after start()");
  const int core = static_cast<int>(interfaces_.size());
  interfaces_.push_back(std::unique_ptr<NetworkInterface>(
      new NetworkInterface(*this, core, std::move(core_name))));
  return *interfaces_.back();
}

void Noc::start() {
  if (started_) throw std::logic_error("Noc::start called twice");
  if (interfaces_.empty()) throw std::logic_error("Noc::start with no cores");
  started_ = true;
  if (cfg_.arbitration == Arbitration::kTdma) {
    kernel_.schedule_at(kernel_.now(), [this] { run_tdma_slot(0); },
                        sim::EventOrder::kHardware);
  }
}

void Noc::inject_babble(int core, std::size_t burst_bytes, Duration interval,
                        Time from, Time until) {
  NetworkInterface* ni = interfaces_.at(static_cast<std::size_t>(core)).get();
  auto handle = kernel_.schedule_periodic(
      from, interval,
      [this, ni, burst_bytes] {
        NocMessage junk;
        junk.destination = -1;  // broadcast: worst case for the others
        junk.name = "babble";
        junk.bytes = burst_bytes;
        ni->send(junk);
        trace_.emit(kernel_.now(), "noc.babble", ni->name(),
                    static_cast<std::int64_t>(burst_bytes));
      },
      sim::EventOrder::kHardware);
  kernel_.schedule_at(until, [this, handle] { kernel_.cancel(handle); },
                      sim::EventOrder::kHardware);
}

void Noc::notify_pending(int core) {
  (void)core;
  if (cfg_.arbitration == Arbitration::kFcfs) try_fcfs();
  // TDMA mode drains queues at slot boundaries only.
}

void Noc::run_tdma_slot(std::size_t core) {
  NetworkInterface& ni = *interfaces_[core];
  const Time slot_end = kernel_.now() + cfg_.slot_len;
  // Drain as many whole messages as fit in this slot (guardian: the NI can
  // never transmit outside [now, slot_end), whatever the core does).
  Time cursor = kernel_.now();
  while (!ni.queue_.empty()) {
    const Duration t = tx_time(ni.queue_.front().bytes);
    if (cursor + t > slot_end) break;
    NocMessage msg = std::move(ni.queue_.front());
    ni.queue_.pop_front();
    const Time done = cursor + t;
    kernel_.schedule_at(
        done,
        [this, msg = std::move(msg)]() mutable { deliver(std::move(msg)); },
        sim::EventOrder::kHardware);
    cursor = done;
  }
  const std::size_t next = (core + 1) % interfaces_.size();
  kernel_.schedule_at(slot_end, [this, next] { run_tdma_slot(next); },
                      sim::EventOrder::kHardware);
}

void Noc::try_fcfs() {
  if (link_busy_) return;
  // Oldest pending message wins; ties resolve by core index (deterministic).
  NetworkInterface* best = nullptr;
  for (const auto& ni : interfaces_) {
    if (ni->queue_.empty()) continue;
    if (best == nullptr ||
        ni->queue_.front().enqueued_at < best->queue_.front().enqueued_at) {
      best = ni.get();
    }
  }
  if (best == nullptr) return;
  NocMessage msg = std::move(best->queue_.front());
  best->queue_.pop_front();
  link_busy_ = true;
  kernel_.schedule_in(
      tx_time(msg.bytes),
      [this, msg = std::move(msg)]() mutable {
        link_busy_ = false;
        deliver(std::move(msg));
        try_fcfs();
      },
      sim::EventOrder::kHardware);
}

void Noc::deliver(NocMessage msg) {
  msg.delivered_at = kernel_.now();
  ++delivered_;
  trace_.emit(kernel_.now(), "noc.rx", msg.name,
              static_cast<std::int64_t>(msg.bytes));
  if (msg.destination >= 0) {
    interfaces_.at(static_cast<std::size_t>(msg.destination))->deliver(msg);
    return;
  }
  for (const auto& ni : interfaces_) {
    if (ni->core() != msg.source) ni->deliver(msg);
  }
}

}  // namespace orte::noc
