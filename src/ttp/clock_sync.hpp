// Distributed clock synchronization for the time-triggered architecture.
//
// TTP's TDMA schedule only works because every node shares a global time
// base of bounded precision. Each node owns a crystal with an individual
// drift rate; at every resynchronization interval the cluster runs the
// fault-tolerant average (FTA) algorithm on the clock differences observed
// from frame arrival instants: discard the k largest and k smallest
// readings, correct by the mean of the rest. With at most k arbitrarily
// faulty clocks, the achieved precision stays bounded by
//   Pi ~= 2 * rho * R + epsilon   (drift regain + reading error)
// whereas free-running clocks diverge without bound.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::ttp {

struct ClockSyncConfig {
  std::size_t nodes = 4;
  double max_drift_ppm = 100.0;  ///< Crystal tolerance (+-).
  sim::Duration resync_interval = sim::milliseconds(10);
  std::size_t fault_tolerance = 1;  ///< k: faulty clocks tolerated by FTA.
  bool enable_sync = true;          ///< false = free-running baseline.
  std::uint64_t seed = 1;
};

class ClockSyncCluster {
 public:
  ClockSyncCluster(sim::Kernel& kernel, sim::Trace& trace,
                   ClockSyncConfig cfg);

  /// Arm the resynchronization rounds. Call once.
  void start();

  /// Node i's local clock reading at the current simulated instant.
  [[nodiscard]] sim::Time local_time(std::size_t node) const;

  /// Current precision: max pairwise difference of local clocks (ns).
  [[nodiscard]] sim::Duration precision() const;

  /// Worst precision observed at any resync boundary so far (ns).
  [[nodiscard]] sim::Duration worst_precision() const {
    return worst_precision_;
  }

  /// Inject a byzantine clock: node reports (and runs) an offset error of
  /// +delta from time `from` on. FTA must exclude it.
  void inject_byzantine(std::size_t node, sim::Duration delta, sim::Time from);

  [[nodiscard]] std::size_t rounds() const { return rounds_; }

 private:
  struct NodeClock {
    std::int64_t drift_ppm = 0;  ///< Rate deviation in parts-per-million.
    sim::Duration offset = 0;    ///< Accumulated correction state.
    sim::Duration byz_delta = 0;
    sim::Time byz_from = sim::kForever;
  };

  void resync();
  [[nodiscard]] sim::Time raw_clock(const NodeClock& c) const;

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  ClockSyncConfig cfg_;
  sim::Rng rng_;
  std::vector<NodeClock> clocks_;
  sim::Duration worst_precision_ = 0;
  std::size_t rounds_ = 0;
  bool started_ = false;
};

}  // namespace orte::ttp
