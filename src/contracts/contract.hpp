// Rich component interfaces (§3): contract-based specifications.
//
// A contract pairs *assumptions* (what the component requires from its
// environment, per input flow) with *guarantees* (what it promises on its
// output flows), plus a *vertical assumption* capturing the platform
// resources it needs (CPU share, memory, bus bandwidth) annotated with a
// confidence level — "reflecting design experience on the ability to meet
// e.g. expected resource constraints".
//
// Flow specifications carry a value range and timing attributes (period,
// jitter, latency); compatibility of a connection means the source guarantee
// *implies* the sink assumption (range containment, timing refinement).
// Dominance (refinement between contracts) is: weaker-or-equal assumptions
// and stronger-or-equal guarantees.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "contracts/timed_automaton.hpp"
#include "sim/time.hpp"

namespace orte::contracts {

using sim::Duration;

/// Closed integer interval [lo, hi].
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] bool valid() const { return lo <= hi; }
  /// [INT64_MIN, INT64_MAX], the FlowSpec default: no value constraint.
  [[nodiscard]] bool unbounded() const {
    return lo == INT64_MIN && hi == INT64_MAX;
  }
  [[nodiscard]] bool contains(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  [[nodiscard]] bool contains(std::int64_t v) const {
    return lo <= v && v <= hi;
  }
  bool operator==(const Interval&) const = default;
};

/// Timing attributes of a flow. Zero fields mean "unconstrained".
struct TimingSpec {
  Duration period = 0;   ///< Update period of the flow.
  Duration jitter = 0;   ///< Max deviation from the nominal instants.
  Duration latency = 0;  ///< Max age of the value when observed / offered.
  bool operator==(const TimingSpec&) const = default;
};

/// Specification of one named flow (a port-level data stream).
struct FlowSpec {
  std::string flow;
  Interval range{INT64_MIN, INT64_MAX};
  TimingSpec timing;
  /// Confidence the specifier attaches to this spec, in (0, 1].
  double confidence = 1.0;
};

/// Vertical (resource) assumption towards the execution platform.
struct ResourceSpec {
  double cpu_utilization = 0.0;  ///< Fraction of one processing node.
  std::size_t memory_bytes = 0;
  double bus_bandwidth_bps = 0.0;
  double confidence = 1.0;
};

/// Behavioural contract (§3 "extended automata model"): a timed automaton
/// observing the component's flow events. Each binding maps a flow name
/// ("port" or "port.element", same convention as FlowSpec) to the automaton
/// label fired when that flow updates; `tick` scales automaton time units to
/// simulation nanoseconds so the same automaton checks recorded words
/// (run()) and live traces (rv::AutomatonMonitor).
struct BehaviourSpec {
  TimedAutomaton automaton;
  struct LabelBinding {
    std::string flow;
    std::string label;
  };
  std::vector<LabelBinding> bindings;
  Duration tick = 1;  ///< Simulation ns per automaton time unit.
  double confidence = 1.0;
};

struct Contract {
  std::string name;
  std::vector<FlowSpec> assumptions;  ///< Indexed by input flow name.
  std::vector<FlowSpec> guarantees;   ///< Indexed by output flow name.
  ResourceSpec vertical;
  /// Optional behavioural contract, enforced online by the rv layer.
  std::optional<BehaviourSpec> behaviour;

  [[nodiscard]] const FlowSpec* assumption(std::string_view flow) const;
  [[nodiscard]] const FlowSpec* guarantee(std::string_view flow) const;
  /// The spec covering element `element` of `port`: flow "port.element",
  /// else the whole-port flow "port"; null when neither is declared.
  [[nodiscard]] const FlowSpec* flow_spec(std::string_view port,
                                          std::string_view element,
                                          bool assumption) const;
};

/// Outcome of a check: ok plus human-readable violations and the minimum
/// confidence of every spec the verdict rests on (§3: "system-level analysis
/// up to a degree of confidence characterized by the collection of vertical
/// assumptions").
struct CheckResult {
  bool ok = true;
  double confidence = 1.0;
  std::vector<std::string> violations;

  void merge(const CheckResult& other);
  void violation(std::string msg);
};

/// Does guarantee `g` (source) imply assumption `a` (sink)?
///  * value: g.range ⊆ a.range
///  * period: g.period <= a.period (faster or equal updates) when a demands
///  * jitter/latency: g <= a when a demands
CheckResult satisfies(const FlowSpec& g, const FlowSpec& a);

/// Refinement: `refined` can replace `abstract` in any context —
/// assumptions no stronger, guarantees no weaker.
bool dominates(const Contract& refined, const Contract& abstract);

}  // namespace orte::contracts
