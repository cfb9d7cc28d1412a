// Watchdog Manager: alive supervision of tasks/runnables.
//
// Each supervised entity must report at least `min_indications` checkpoint
// indications per supervision cycle; violations fire a callback (typically
// wired to DEM + a mode switch to a safe state). Together with execution
// budgets this closes the timing-isolation loop: budgets bound *over*-use of
// the CPU, alive supervision detects *under*-delivery (crashed or starved
// suppliers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::bsw {

struct SupervisionConfig {
  std::string entity;
  std::uint32_t min_indications = 1;
  /// Consecutive failed cycles tolerated before the violation fires.
  std::uint32_t failed_cycles_tolerance = 0;
};

class WatchdogManager {
 public:
  using ViolationCallback =
      std::function<void(const std::string& entity, std::uint32_t count)>;

  WatchdogManager(sim::Kernel& kernel, sim::Trace& trace,
                  sim::Duration supervision_cycle);

  void supervise(SupervisionConfig cfg);

  /// Called by the supervised code path (task body / runnable).
  void checkpoint(std::string_view entity);

  /// Begin supervision cycles. Call once.
  void start();

  void on_violation(ViolationCallback cb) { violation_cb_ = std::move(cb); }

  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  struct Entity {
    SupervisionConfig cfg;
    std::uint32_t count = 0;
    std::uint32_t failed_cycles = 0;
    bool expired = false;
  };

  void cycle();

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  sim::Duration cycle_len_;
  std::map<std::string, Entity, std::less<>> entities_;
  ViolationCallback violation_cb_;
  std::uint64_t violations_ = 0;
  bool started_ = false;
};

}  // namespace orte::bsw
