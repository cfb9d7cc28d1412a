#include "ttp/clock_sync.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::ttp {

namespace {
/// Jitter of a clock-difference measurement (latch granularity etc).
constexpr sim::Duration kReadingError = sim::microseconds(1);
}  // namespace

ClockSyncCluster::ClockSyncCluster(sim::Kernel& kernel, sim::Trace& trace,
                                   ClockSyncConfig cfg)
    : kernel_(kernel), trace_(trace), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.nodes < 2) {
    throw std::invalid_argument("clock sync needs at least 2 nodes");
  }
  if (cfg_.nodes <= 2 * cfg_.fault_tolerance) {
    throw std::invalid_argument(
        "FTA needs more than 2k nodes to tolerate k faults");
  }
  clocks_.resize(cfg_.nodes);
  const auto ppm = static_cast<std::int64_t>(cfg_.max_drift_ppm);
  for (auto& c : clocks_) {
    c.drift_ppm = rng_.uniform(-ppm, ppm);
  }
}

sim::Time ClockSyncCluster::raw_clock(const NodeClock& c) const {
  const sim::Time t = kernel_.now();
  // Integer ppm arithmetic, split to avoid overflow: exact and
  // platform-independent over any horizon, unlike the previous
  // double multiply-and-cast which loses precision on long runs.
  const sim::Time drift = (t / 1'000'000) * c.drift_ppm +
                          (t % 1'000'000) * c.drift_ppm / 1'000'000;
  sim::Time local = t + drift + c.offset;
  if (t >= c.byz_from) local += c.byz_delta;
  return local;
}

sim::Time ClockSyncCluster::local_time(std::size_t node) const {
  return raw_clock(clocks_.at(node));
}

sim::Duration ClockSyncCluster::precision() const {
  sim::Time lo = raw_clock(clocks_[0]);
  sim::Time hi = lo;
  for (const auto& c : clocks_) {
    const sim::Time v = raw_clock(c);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

void ClockSyncCluster::inject_byzantine(std::size_t node, sim::Duration delta,
                                        sim::Time from) {
  clocks_.at(node).byz_delta = delta;
  clocks_.at(node).byz_from = from;
}

void ClockSyncCluster::start() {
  if (started_) throw std::logic_error("ClockSyncCluster::start called twice");
  started_ = true;
  kernel_.schedule_periodic(
      kernel_.now() + cfg_.resync_interval, cfg_.resync_interval,
      [this] { resync(); }, sim::EventOrder::kHardware);
}

void ClockSyncCluster::resync() {
  ++rounds_;
  // Record the pre-correction precision: this is the bound the TDMA slot
  // guard intervals must absorb.
  const sim::Duration pi = precision();
  worst_precision_ = std::max(worst_precision_, pi);

  if (!cfg_.enable_sync) return;

  // Every node measures every other node's clock difference (from frame
  // arrival instants), each reading perturbed by the latch error; then
  // applies the fault-tolerant average.
  std::vector<sim::Duration> corrections(clocks_.size(), 0);
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    std::vector<sim::Duration> diffs;
    diffs.reserve(clocks_.size() - 1);
    const sim::Time own = raw_clock(clocks_[i]);
    for (std::size_t j = 0; j < clocks_.size(); ++j) {
      if (j == i) continue;
      const sim::Duration noise =
          rng_.uniform(-kReadingError, kReadingError);
      diffs.push_back(raw_clock(clocks_[j]) - own + noise);
    }
    std::sort(diffs.begin(), diffs.end());
    // Drop the k smallest and k largest readings (FTA).
    const std::size_t k = cfg_.fault_tolerance;
    sim::Duration sum = 0;
    std::size_t used = 0;
    for (std::size_t d = k; d + k < diffs.size(); ++d) {
      sum += diffs[d];
      ++used;
    }
    corrections[i] = used > 0 ? sum / static_cast<sim::Duration>(used) : 0;
  }
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    // A byzantine node's sync logic is part of the fault: it stops applying
    // corrections, so its error persists — FTA's job is to keep it from
    // dragging the healthy majority along.
    if (kernel_.now() >= clocks_[i].byz_from) continue;
    clocks_[i].offset += corrections[i];
  }
  trace_.emit(kernel_.now(), "ttp.resync", "cluster",
              static_cast<std::int64_t>(pi));
}

}  // namespace orte::ttp
