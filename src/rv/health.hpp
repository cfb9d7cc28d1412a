// Runtime-verification verdicts (§3 executed at run time): a Violation is
// the first-class record a monitor raises when an observed execution leaves
// the envelope its contract promised; the HealthReport aggregates them into
// a queryable per-run health state (the paper's "consistent and non
// ambiguous error handling" applied to contract conformance).
//
// Health is *rate-based*: every contract spec carries a confidence level
// ("reflecting design experience on the ability to meet the specification",
// §3), so a violation is not binary evidence of a broken component — a
// 99.9 %-confidence spec expects up to 1 non-conforming observation per
// 1000. The report therefore tracks, per contract, the total number of
// judged observations alongside the violating ones and derives a *violation
// budget*: tolerated = ⌊(1 − confidence) · observations⌋. A contract is
// over budget only when its violating count exceeds that allowance —
// following the rate-based checking of Nandi et al.'s stochastic contracts.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace orte::rv {

/// One observed contract violation. `streak` counts consecutive violating
/// observations by the same monitor (confidence counter: a streak of 1 may
/// be a transient; a long streak is a persistent fault worth escalating).
struct Violation {
  std::string contract;  ///< Contract id (or implicit rule id, "rm.<task>").
  std::string subject;   ///< Subject path: flow key, task or instance name.
  /// Instance the violation blames (quarantine target, containment
  /// attribution), copied from the violated spec; empty = nobody.
  std::string blame;
  std::string kind;      ///< "period" | "jitter" | "deadline" | "latency" |
                         ///< "range" | "automaton" | "alive".
  std::int64_t observed = 0;  ///< Measured value (ns for timing kinds).
  std::int64_t bound = 0;     ///< Contracted bound it exceeded.
  sim::Time when = 0;
  std::uint64_t streak = 1;   ///< Consecutive violations from this monitor.
  double confidence = 1.0;    ///< Confidence attached to the violated spec.
  std::string detail;
};

/// Aggregated, queryable violation log for one run.
///
/// Two layers of bookkeeping:
///  * exact counters (the total and per-contract rate stats) that never
///    lose precision, and
///  * a log of the most recent `Violation` records for diagnosis, bounded
///    by kRetention so soak runs cannot grow it without limit.
class HealthReport {
 public:
  /// Bound on stored Violation records (counters stay exact).
  static constexpr std::size_t kRetention = 4096;

  /// Per-contract conformance-rate statistics. `violating`/`observations`
  /// are cumulative and exact; the *window* view covers everything since
  /// the last close_window() (the registry closes windows at flush()), so
  /// budget verdicts judge the current evaluation period, not all history —
  /// a contract that violated long ago can prove itself healthy again.
  struct ContractStats {
    std::uint64_t violating = 0;     ///< Judged observations that violated.
    std::uint64_t observations = 0;  ///< All judged observations (fed by the
                                     ///< registry from Monitor::observations).
    double confidence = 1.0;         ///< Strictest spec confidence seen.

    [[nodiscard]] std::uint64_t window_violating() const {
      return violating - window_base_violating;
    }
    [[nodiscard]] std::uint64_t window_observations() const {
      return observations > window_base_observations
                 ? observations - window_base_observations
                 : 0;
    }
    /// Violation budget of the current window:
    /// ⌊(1 − confidence) · window_observations⌋ (an epsilon absorbs the
    /// binary representation of confidences like 0.999).
    [[nodiscard]] std::uint64_t tolerated() const;
    /// Budget exceeded: strictly more window violations than tolerated, so
    /// violations == tolerated is still healthy (the exact-budget boundary).
    [[nodiscard]] bool over_budget() const {
      return window_violating() > tolerated();
    }

    std::uint64_t window_base_violating = 0;
    std::uint64_t window_base_observations = 0;
  };

  void record(const Violation& v);

  /// Feed the cumulative judged-observation count for `contract` (the
  /// registry sums Monitor::observations() over the contract's monitors)
  /// together with the strictest confidence any of those monitors carries.
  void note_observations(std::string_view contract, std::uint64_t total,
                         double confidence);

  /// Close `contract`'s evaluation window: subsequent budget verdicts judge
  /// only observations recorded from now on.
  void close_window(std::string_view contract);
  /// Close every contract's evaluation window.
  void close_windows();

  /// Most recent violations, oldest first (at most kRetention).
  [[nodiscard]] const std::deque<Violation>& violations() const {
    return violations_;
  }
  /// Exact number of violations ever recorded (survives log eviction).
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] bool healthy() const { return total_ == 0; }
  /// Rate statistics of `contract`; nullptr when it never appeared.
  [[nodiscard]] const ContractStats* stats(std::string_view contract) const;
  [[nodiscard]] const std::map<std::string, ContractStats, std::less<>>&
  contract_stats() const {
    return contract_stats_;
  }

 private:
  std::deque<Violation> violations_;
  std::size_t total_ = 0;
  std::map<std::string, ContractStats, std::less<>> contract_stats_;
};

}  // namespace orte::rv
