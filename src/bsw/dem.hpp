// Diagnostic Event Manager (DEM): the paper's "consistent and non ambiguous
// error handling ... used for mode management and diagnostic purposes. Use
// cases include broken sensors, communication errors and memory failures."
//
// Events debounce with a counter (+1 failed, -1 passed, latch at threshold);
// a latched event stores/updates a DTC with occurrence bookkeeping and ages
// out after kDtcAgingCycles fault-free operation cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::bsw {

enum class EventStatus { kPassed, kFailed };

/// Fault-free operation cycles after which a healed DTC is erased.
inline constexpr std::uint32_t kDtcAgingCycles = 3;

struct DemEventConfig {
  std::string name;
  std::int32_t debounce_threshold = 1;  ///< Failures needed to latch.
  std::uint32_t dtc_code = 0;           ///< 3-byte DTC number (UDS reports).
};

struct Dtc {
  std::string event;
  std::uint32_t code = 0;  ///< Numeric DTC (for the DCM / testers).
  std::uint32_t occurrence_count = 0;
  sim::Time first_occurrence = 0;
  sim::Time last_occurrence = 0;
  bool confirmed = true;  ///< False once aging started (healed but stored).
  std::uint32_t aged = 0;  ///< Fault-free cycles seen so far.
};

class Dem {
 public:
  using DtcCallback = std::function<void(const Dtc&)>;

  Dem(sim::Kernel& kernel, sim::Trace& trace);

  void add_event(DemEventConfig cfg);

  /// Report a monitor result for an event (broken sensor, rx timeout, ...).
  void report(std::string_view event, EventStatus status);

  /// End of one operation cycle (ignition cycle): aging of healed DTCs.
  void operation_cycle_end();

  /// UDS ClearDiagnosticInformation: drop all stored DTCs and reset
  /// debounce state.
  void clear_all();

  [[nodiscard]] std::optional<Dtc> dtc(std::string_view event) const;
  [[nodiscard]] std::vector<Dtc> stored_dtcs() const;
  [[nodiscard]] std::uint64_t reports() const { return reports_; }

  /// Invoked when an event first latches (fresh DTC or re-occurrence).
  void on_dtc_stored(DtcCallback cb) { callbacks_.push_back(std::move(cb)); }

  /// Invoked when a healed DTC completes aging and is erased (receives a
  /// copy of its final state). Fires after the whole aging sweep of an
  /// operation cycle, so callbacks may query/report this Dem freely — this
  /// is the hook the rv layer uses to close the error-handling loop
  /// (release quarantine, request recovery mode).
  void on_aged_out(DtcCallback cb) {
    aged_out_callbacks_.push_back(std::move(cb));
  }

 private:
  struct EventState {
    DemEventConfig cfg;
    std::int32_t debounce = 0;
    bool failed = false;
  };

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  std::map<std::string, EventState, std::less<>> events_;
  std::map<std::string, Dtc, std::less<>> dtcs_;
  std::vector<DtcCallback> callbacks_;
  std::vector<DtcCallback> aged_out_callbacks_;
  std::uint64_t reports_ = 0;
};

}  // namespace orte::bsw
