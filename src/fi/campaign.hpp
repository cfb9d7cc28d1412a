// Fault-injection campaign engine: expands a declarative fault list into N
// deterministic scenarios, runs them on a fixed-size thread pool, and scores
// every run against the runtime-verification stack — did the rv monitors
// SEE the fault (detected), did every reaction stay inside the fault's
// containment domain (contained), did nothing fire (missed), and does the
// fault-free baseline stay silent (else spurious)? The aggregate is the
// fault-class x detector coverage matrix of experiment E9b: the measured
// counterpart of the paper's §4 error-containment claims.
//
// Determinism: each scenario builds a fresh Kernel/Trace/System from the
// user's model factory and draws every stochastic decision from
// Rng(seed).fork(scenario_index). Results are written into a pre-sized
// vector by scenario index, so the report is bit-identical whether the
// campaign runs on 1 thread or N.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fi/fault.hpp"
#include "rv/health.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "vfb/deployment.hpp"
#include "vfb/model.hpp"

namespace orte::fi {

// --- Scenario model -----------------------------------------------------------

/// Everything one scenario needs to build its own private system. The
/// Composition is held by value because vfb::System keeps a reference into
/// it — the bundle outlives the system inside the scenario scope.
struct ModelBundle {
  vfb::Composition model;
  vfb::DeploymentPlan plan;
  std::string initial_mode = "RUN";
  std::string degraded_mode = "DEGRADED";
};

/// Builds a fresh bundle per scenario. MUST be thread-safe: the campaign
/// calls it concurrently from worker threads (build pure models — shared
/// mutable state inside behaviors must be created per call).
using ModelFactory = std::function<ModelBundle()>;

struct CampaignConfig {
  std::uint64_t seed = 1;
  /// Scenarios per fault (each with its own RNG stream).
  std::size_t replicates = 1;
  /// Simulated time per scenario.
  sim::Duration horizon = sim::seconds(1);
  /// Monitor flush + DEM operation-cycle period (the rv heartbeat).
  sim::Duration heartbeat = sim::milliseconds(100);
  /// Default fault onset, applied to faults whose `from` is 0. A fault-free
  /// warm-up prefix is what lets pre-onset violations be scored spurious.
  sim::Time onset = sim::milliseconds(200);
  /// Worker threads; <= 1 runs inline.
  std::size_t threads = 1;
  /// DEM debounce threshold for contract events.
  std::int32_t debounce = 3;
  /// Over-budget window violations before the degraded mode is requested.
  std::size_t escalation_threshold = 3;
};

// --- Outcome scoring ----------------------------------------------------------

enum class Outcome {
  kNominal,    ///< Baseline ran clean.
  kContained,  ///< Detected, and every violation blames the fault's domain.
  kDetected,   ///< Detected, but a violation leaked outside the domain.
  kMissed,     ///< Fault active, no monitor fired.
  kSpurious,   ///< A violation fired before onset (or in the baseline).
};

[[nodiscard]] std::string_view to_string(Outcome outcome);

/// Detector bitmask: which layer(s) noticed the fault.
enum Detector : unsigned {
  kDetArrival = 1u << 0,
  kDetDeadline = 1u << 1,
  kDetLatency = 1u << 2,
  kDetRange = 1u << 3,
  kDetAutomaton = 1u << 4,
  kDetDem = 1u << 5,   ///< A contract DTC matured.
  kDetMode = 1u << 6,  ///< The degraded mode was entered.
  kDetAlive = 1u << 7,  ///< Watchdog alive supervision expired (fail-silence
                        ///< detection; needs DeploymentPlan::alive_supervision).
};
inline constexpr unsigned kDetectorCount = 8;

/// Monitor detector bit for a Violation::kind ("period"/"jitter" ->
/// kDetArrival, "deadline" -> kDetDeadline, ...; 0 for unknown).
[[nodiscard]] unsigned detector_of(std::string_view violation_kind);
[[nodiscard]] std::string_view detector_name(unsigned bit);

/// One monitor violation reduced to what scoring needs.
struct Detection {
  sim::Time when = 0;
  /// Blamed instance (rv::Violation::blame, the attribution the registry's
  /// quarantine uses too).
  std::string instance;
  unsigned detector = 0;  ///< Detector bit.
};

/// Everything classify() judges — kept free of System/Trace so the scoring
/// rules are unit-testable without running a simulation.
struct Evidence {
  bool baseline = false;
  sim::Time onset = 0;  ///< Ignored for baselines.
  std::vector<Detection> detections;
};

/// The pure scoring rule (see Outcome) against the fault's containment
/// domain (fi::domain_of). Pre-onset detections dominate (spurious), then
/// silence (missed/nominal), then containment.
[[nodiscard]] Outcome classify(const Evidence& evidence, const Domain& domain);

// --- Results ------------------------------------------------------------------

struct ScenarioResult {
  std::size_t index = 0;
  bool baseline = false;
  Fault fault;  ///< Meaningful when !baseline.
  Outcome outcome = Outcome::kNominal;
  unsigned detectors = 0;  ///< Detector bits that fired post-onset.
  sim::Time onset = 0;
  sim::Time first_violation = -1;  ///< -1 = never.
  sim::Time first_dtc = -1;
  sim::Time first_degrade = -1;
  std::size_t violations = 0;
  /// Kernel events the scenario executed (its simulation cost).
  std::uint64_t events_executed = 0;
};

struct ClassStats {
  std::size_t total = 0;
  /// Any monitor fired post-onset (contained + leaked).
  std::size_t detected = 0;
  std::size_t contained = 0;  ///< Detected, every blame inside the domain.
  std::size_t leaked = 0;     ///< Detected, but a blame escaped the domain.
  std::size_t missed = 0;
  std::size_t spurious = 0;
  /// Scenarios of this class in which each detector fired (by bit index).
  std::vector<std::size_t> by_detector = std::vector<std::size_t>(
      kDetectorCount, 0);
};

struct Report {
  std::vector<ScenarioResult> scenarios;
  /// Fault class -> outcome/detector aggregate (the E9b coverage matrix).
  std::map<std::string, ClassStats> matrix;
  std::size_t baselines = 0;
  std::size_t spurious_baselines = 0;
  /// Onset -> first violation / matured DTC / degraded mode, over scenarios
  /// scored detected or contained (ns).
  sim::Stats detection_latency;
  sim::Stats confirmation_latency;
  sim::Stats reaction_latency;

  [[nodiscard]] std::size_t count(Outcome outcome) const;
  /// Rendered coverage matrix + latency percentiles (stdout-ready).
  [[nodiscard]] std::string render() const;
};

// --- Runner -------------------------------------------------------------------

class Campaign {
 public:
  Campaign(ModelFactory factory, CampaignConfig cfg);

  /// Append a fault; it becomes `replicates` scenarios. Faults with
  /// `from == 0` inherit the campaign onset.
  void add_fault(Fault fault);

  /// Baseline + faults x replicates.
  [[nodiscard]] std::size_t scenario_count() const {
    return 1 + faults_.size() * cfg_.replicates;
  }

  /// Run every scenario (on cfg.threads workers) and aggregate. Before any
  /// worker starts, validation::check_faults admits every fault against the
  /// lowering of one factory bundle, so a bad target or parameter throws
  /// std::invalid_argument without building a System. An exception thrown
  /// inside a scenario (say, System rejecting the model) stops the run and
  /// is rethrown after the workers join: that of the lowest scenario index,
  /// whatever the thread count.
  [[nodiscard]] Report run() const;

 private:
  [[nodiscard]] ScenarioResult run_scenario(std::size_t index) const;

  ModelFactory factory_;
  CampaignConfig cfg_;
  std::vector<Fault> faults_;
};

}  // namespace orte::fi
