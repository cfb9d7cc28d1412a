// Online contract monitors: each compiles one clause of a rich-component
// contract (TimingSpec period/jitter, deadline, end-to-end latency, or a
// behavioural timed automaton) into an incremental observer of the live
// sim::Trace stream. Monitors never consume simulated time — they run in
// trace-listener context, so attaching them cannot perturb the execution
// they judge (the determinism requirement the experiments rest on).
//
// Nandi et al. (stochastic contracts for runtime checking) is the template:
// design-time contract -> synthesized observer -> structured verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "contracts/contract.hpp"
#include "rv/health.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace orte::rv {

/// Base of every online monitor. A monitor names the interned (category,
/// subject) keys it consumes; the MonitorRegistry routes matching records to
/// observe() and receives raised violations through the bound sink.
class Monitor {
 public:
  using Sink = std::function<void(const Violation&)>;

  /// One routing key: an interned (category, subject) pair of the trace.
  struct Key {
    sim::TraceId category = sim::kNoTraceId;
    sim::TraceId subject = sim::kNoTraceId;
  };

  virtual ~Monitor() = default;
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Called once by the registry at attach() time with the trace this
  /// monitor will observe: intern the spec's names (so observe() compares
  /// integers, never strings) and return the keys to route to observe().
  [[nodiscard]] virtual std::vector<Key> subscribe(sim::Trace& trace) = 0;

  /// Observe one routed emission. The TraceEvent view carries interned IDs
  /// only (no name strings) — the registry reaches this through the
  /// Trace::subscribe_ids fast path, so a monitored run never materializes
  /// per-record strings; name lookups (for violation reports) go through
  /// the Trace handed to subscribe().
  virtual void observe(const sim::TraceEvent& rec) = 0;

  /// Re-anchor incremental expectations after a gap the monitor must not
  /// judge (the registry calls this when a contract is rehabilitated after
  /// a DTC aged out): forget the last arrival / pending causes / automaton
  /// progress, keep the cumulative observation count.
  virtual void resync() {}

  void bind(Sink sink) { sink_ = std::move(sink); }
  [[nodiscard]] const std::string& contract() const { return contract_; }
  [[nodiscard]] std::uint64_t raised() const { return raised_; }
  /// Total judged observations (conforming and violating alike) — the
  /// denominator of the contract's violation budget. The registry sums this
  /// per contract (MonitorRegistry::flush) to drive rate-based health.
  [[nodiscard]] std::uint64_t observations() const { return observations_; }
  /// Confidence of the spec this monitor enforces (budget numerator side).
  [[nodiscard]] double confidence() const { return confidence_; }

 protected:
  explicit Monitor(std::string contract, double confidence = 1.0,
                   std::string blame = {})
      : contract_(std::move(contract)),
        confidence_(confidence),
        blame_(std::move(blame)) {}
  /// Report `v` under this monitor's contract and confidence; an empty
  /// v.blame defaults to the spec's blame.
  void raise(Violation v);
  /// Count one judged observation (call once per verdict, either way).
  void note_observation() { ++observations_; }

  std::string contract_;

 private:
  Sink sink_;
  std::uint64_t raised_ = 0;
  std::uint64_t observations_ = 0;
  double confidence_ = 1.0;
  std::string blame_;
};

// --- Arrival-rate / jitter ----------------------------------------------------

/// Watches the "rte.write" update stream of one sender key and checks every
/// inter-arrival time against the contracted period and jitter: with
/// jitter J > 0 the interval must stay in [P-J, P+J]; with J = 0 only late
/// updates (interval > P) violate, since faster-than-promised updates
/// refine the guarantee (contracts::satisfies semantics). It also watches
/// "rte.quarantine_drop" of the same key, so a quarantined component stays
/// under observation through its suppressed writes — the DEM can only
/// certify recovery (and age the contract's DTC out) if the component
/// demonstrably behaves again while still sanctioned.
struct ArrivalSpec {
  std::string contract;
  std::string subject;  ///< Sender key to match (e.g. "pedal.pedal.stamp").
  std::string blame;  ///< Instance a violation blames (the producer).
  sim::Duration period = 0;  ///< Contracted update period (ns); 0 = skip.
  sim::Duration jitter = 0;  ///< Allowed deviation from the period (ns).
  double confidence = 1.0;
};

class ArrivalMonitor final : public Monitor {
 public:
  explicit ArrivalMonitor(ArrivalSpec spec);
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override;
  void observe(const sim::TraceEvent& rec) override;
  void resync() override;
  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }

 private:
  ArrivalSpec spec_;
  sim::TraceId subject_id_ = sim::kNoTraceId;
  sim::Time last_ = -1;
  std::uint64_t arrivals_ = 0;
  std::uint64_t streak_ = 0;
};

// --- Deadline ----------------------------------------------------------------

/// Watches one task's lifecycle records: every "task.deadline_miss" raises a
/// deadline violation; every "task.complete" counts as a judged observation
/// and, within the deadline, ends the consecutive-miss streak.
struct DeadlineSpec {
  std::string contract;
  std::string task;  ///< Generated task name.
  std::string blame;  ///< Instance a violation blames (the task owner).
  sim::Duration deadline = 0;  ///< Reported bound for miss records.
  double confidence = 1.0;
};

class DeadlineMonitor final : public Monitor {
 public:
  explicit DeadlineMonitor(DeadlineSpec spec);
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override;
  void observe(const sim::TraceEvent& rec) override;
  void resync() override;
  [[nodiscard]] std::uint64_t completions() const { return completions_; }

 private:
  DeadlineSpec spec_;
  sim::TraceId task_id_ = sim::kNoTraceId;
  sim::TraceId miss_category_id_ = sim::kNoTraceId;
  std::uint64_t completions_ = 0;
  std::uint64_t miss_streak_ = 0;
};

// --- End-to-end chain latency -------------------------------------------------

/// Measures producer-to-consumer latency over a cause-effect chain: source
/// events ("rte.write" of the chain head's sender key) enqueue their
/// timestamps; each sink event ("rte.runnable" of the chain tail) consumes
/// the oldest pending timestamp — exact for 1:1 activation chains
/// (data-received pipelines), conservative under sink overload because the
/// oldest unconsumed cause keeps aging. The queue is bounded: when the sink
/// falls more than LatencyMonitor::kMaxInFlight events behind, the oldest
/// cause is reported as a latency violation with the age it reached and
/// dropped.
struct LatencySpec {
  std::string contract;
  std::string source_subject;  ///< Sender key of the chain head.
  std::string sink_subject;    ///< Instance of the chain tail.
  std::string sink_detail;  ///< Optional: also match record detail
                            ///< (runnable name); empty = any.
  std::string blame;  ///< Instance a violation blames (the chain source).
  sim::Duration bound = 0;  ///< Max pedal-to-actuator age (ns).
  /// Holistic worst-case bound of the watched chain, computed at generation
  /// time (validation::analyze_chains) and recorded here so the static and
  /// dynamic layers sit side by side: a sound static analysis implies
  /// worst() <= static_bound on every run. 0 = not statically bounded.
  sim::Duration static_bound = 0;
  double confidence = 1.0;
};

class LatencyMonitor final : public Monitor {
 public:
  /// Causes the sink may fall behind before the oldest is dropped.
  static constexpr std::size_t kMaxInFlight = 64;

  explicit LatencyMonitor(LatencySpec spec);
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override;
  void observe(const sim::TraceEvent& rec) override;
  void resync() override;
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] sim::Duration worst() const { return worst_; }
  /// The full spec this monitor enforces — exposes the contracted bound and
  /// the static cross-check bound next to the observed worst().
  [[nodiscard]] const LatencySpec& spec() const { return spec_; }

 private:
  LatencySpec spec_;
  Key source_;  ///< "rte.write" of the source subject.
  Key sink_;    ///< "rte.runnable" of the sink subject.
  std::deque<sim::Time> in_flight_;
  std::uint64_t samples_ = 0;
  sim::Duration worst_ = 0;
  std::uint64_t streak_ = 0;
};

// --- Value range --------------------------------------------------------------

/// Checks every observed value of one flow against the contracted interval.
/// Guarantee-side instances watch the producer's "rte.write" records (the
/// value as the component emitted it); assumption-side instances watch the
/// consumer's "rte.deliver" records (the value as it arrived, after bus
/// transport) — the split makes in-transit corruption attributable: a clean
/// write followed by an out-of-range delivery indicts the channel, not the
/// producer.
struct RangeSpec {
  std::string contract;
  std::string subject;  ///< Trace subject to match (sender or receiver key).
  std::string category = "rte.write";
  /// Subject reported in the violation; defaults to `subject`.
  /// Receiver-side monitors report the PRODUCER sender key.
  std::string report_subject;
  /// Instance a violation blames. Receiver-side monitors blame the producer
  /// too, so quarantine and DEM bookkeeping land on the component whose flow
  /// went bad, not on the victim that received the damaged value.
  std::string blame;
  contracts::Interval range{INT64_MIN, INT64_MAX};
  double confidence = 1.0;
};

class RangeMonitor final : public Monitor {
 public:
  explicit RangeMonitor(RangeSpec spec);
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override;
  void observe(const sim::TraceEvent& rec) override;
  void resync() override;
  [[nodiscard]] std::uint64_t checked() const { return checked_; }

 private:
  RangeSpec spec_;
  sim::TraceId subject_id_ = sim::kNoTraceId;
  std::uint64_t checked_ = 0;
  std::uint64_t streak_ = 0;
};

// --- Behavioural timed automaton ---------------------------------------------

/// Steps a contracts::TimedAutomaton against the live trace: label rules map
/// the "rte.write" records of sender keys to automaton labels; each matching
/// record advances the clocks by the elapsed simulation time (scaled by
/// `tick`) and fires the first enabled edge. A stuck event or an entered
/// error location raises an "automaton" violation; the observer then resets
/// to the initial state so one glitch does not blind it for the rest of the
/// run.
struct AutomatonSpec {
  std::string contract;
  contracts::TimedAutomaton automaton;
  struct LabelRule {
    std::string subject;  ///< Sender key whose writes carry the label.
    std::string label;
    std::string blame;  ///< Instance a violation on this rule blames.
  };
  std::vector<LabelRule> labels;
  sim::Duration tick = 1;  ///< Simulation ns per automaton time unit.
  double confidence = 1.0;
};

class AutomatonMonitor final : public Monitor {
 public:
  explicit AutomatonMonitor(AutomatonSpec spec);
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override;
  void observe(const sim::TraceEvent& rec) override;
  void resync() override;
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] int location() const { return stepper_.location(); }

 private:
  AutomatonSpec spec_;
  const sim::Trace* trace_ = nullptr;  ///< For subject names in violations.
  std::vector<sim::TraceId> rule_subjects_;  ///< Parallel to spec_.labels.
  contracts::TimedAutomaton::Stepper stepper_;
  sim::Time last_event_ = 0;
  bool anchor_pending_ = false;  ///< Next event re-anchors time (resync()).
  std::uint64_t events_ = 0;
  std::uint64_t streak_ = 0;
};

}  // namespace orte::rv
