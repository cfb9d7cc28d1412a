#include "fi/campaign.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "fi/injector.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "validation/detectability.hpp"
#include "vfb/lowering.hpp"
#include "vfb/system.hpp"

namespace orte::fi {

// --- Scoring primitives -------------------------------------------------------

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kNominal:
      return "nominal";
    case Outcome::kContained:
      return "contained";
    case Outcome::kDetected:
      return "detected";
    case Outcome::kMissed:
      return "missed";
    case Outcome::kSpurious:
      return "spurious";
  }
  return "unknown";
}

unsigned detector_of(std::string_view violation_kind) {
  if (violation_kind == "period" || violation_kind == "jitter") {
    return kDetArrival;
  }
  if (violation_kind == "deadline") return kDetDeadline;
  if (violation_kind == "latency") return kDetLatency;
  if (violation_kind == "range") return kDetRange;
  if (violation_kind == "automaton") return kDetAutomaton;
  if (violation_kind == "alive") return kDetAlive;
  return 0;
}

std::string_view detector_name(unsigned bit) {
  switch (bit) {
    case kDetArrival:
      return "arrival";
    case kDetDeadline:
      return "deadline";
    case kDetLatency:
      return "latency";
    case kDetRange:
      return "range";
    case kDetAutomaton:
      return "automaton";
    case kDetDem:
      return "dem";
    case kDetMode:
      return "mode";
    case kDetAlive:
      return "alive";
    default:
      return "?";
  }
}

Outcome classify(const Evidence& evidence, const Domain& domain) {
  if (evidence.baseline) {
    return evidence.detections.empty() ? Outcome::kNominal
                                       : Outcome::kSpurious;
  }
  bool pre_onset = false;
  bool post_onset = false;
  bool leaked = false;
  for (const auto& d : evidence.detections) {
    if (d.when < evidence.onset) {
      pre_onset = true;
      continue;
    }
    post_onset = true;
    if (!domain.contains(d.instance)) leaked = true;
  }
  if (pre_onset) return Outcome::kSpurious;  // the detector cried wolf
  if (!post_onset) return Outcome::kMissed;
  return leaked ? Outcome::kDetected : Outcome::kContained;
}

// --- Report -------------------------------------------------------------------

std::size_t Report::count(Outcome outcome) const {
  std::size_t n = 0;
  for (const auto& s : scenarios) {
    if (s.outcome == outcome) ++n;
  }
  return n;
}

namespace {

void append_row(std::string& out, const char* cls, const ClassStats& cs) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-10s %6zu %9zu %10zu %7zu %7zu %9zu |", cls, cs.total,
                cs.detected, cs.contained, cs.leaked, cs.missed, cs.spurious);
  out += buf;
  for (std::size_t i = 0; i < kDetectorCount; ++i) {
    std::snprintf(buf, sizeof(buf), " %9zu", cs.by_detector[i]);
    out += buf;
  }
  out += '\n';
}

void append_latency(std::string& out, const char* stage,
                    const sim::Stats& stats) {
  char buf[256];
  if (stats.count() == 0) {
    std::snprintf(buf, sizeof(buf), "%-22s (no samples)\n", stage);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%-22s p50 %10.0f us   p90 %10.0f us   p99 %10.0f us   "
                  "(%zu samples)\n",
                  stage, stats.percentile(50) / 1e3,
                  stats.percentile(90) / 1e3, stats.percentile(99) / 1e3,
                  stats.count());
  }
  out += buf;
}

}  // namespace

std::string Report::render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-10s %6s %9s %10s %7s %7s %9s |", "class", "total",
                "detected", "contained", "leaked", "missed", "spurious");
  out += buf;
  for (std::size_t i = 0; i < kDetectorCount; ++i) {
    std::snprintf(buf, sizeof(buf), " %9s",
                  std::string(detector_name(1u << i)).c_str());
    out += buf;
  }
  out += '\n';
  out += std::string(72 + 10 * kDetectorCount, '-');
  out += '\n';
  for (const auto& [cls, cs] : matrix) {
    append_row(out, cls.c_str(), cs);
  }
  std::snprintf(buf, sizeof(buf),
                "baselines: %zu (%zu spurious)\n", baselines,
                spurious_baselines);
  out += buf;
  append_latency(out, "onset -> violation", detection_latency);
  append_latency(out, "onset -> DTC", confirmation_latency);
  append_latency(out, "onset -> degraded", reaction_latency);
  return out;
}

// --- Campaign -----------------------------------------------------------------

Campaign::Campaign(ModelFactory factory, CampaignConfig cfg)
    : factory_(std::move(factory)), cfg_(cfg) {}

void Campaign::add_fault(Fault fault) {
  if (fault.from == 0) fault.from = cfg_.onset;
  faults_.push_back(std::move(fault));
}

ScenarioResult Campaign::run_scenario(std::size_t index) const {
  ScenarioResult result;
  result.index = index;
  result.baseline = index == 0;
  if (!result.baseline) {
    result.fault = faults_[(index - 1) / cfg_.replicates];
    result.onset = result.fault.from;
  }

  // Fresh world per scenario: nothing survives into the next one, so the
  // atomic work-index schedule cannot leak state across scenarios.
  ModelBundle bundle = factory_();
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  vfb::System sys(kernel, trace, bundle.model, bundle.plan);

  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", bundle.initial_mode);
  modes.add_mode(bundle.degraded_mode);
  modes.add_transition(bundle.initial_mode, bundle.degraded_mode);
  modes.add_transition(bundle.degraded_mode, bundle.initial_mode);

  Evidence evidence;
  evidence.baseline = result.baseline;
  evidence.onset = result.onset;

  if (sys.monitors() != nullptr) {
    sys.monitors()->report_to(dem, cfg_.debounce);
    sys.monitors()->escalate_to(modes, bundle.degraded_mode,
                                cfg_.escalation_threshold);
    sys.monitors()->on_violation([&evidence](const rv::Violation& v) {
      evidence.detections.push_back(
          Detection{v.when, v.blame, detector_of(v.kind)});
    });
  }
  dem.on_dtc_stored([&result, &kernel](const bsw::Dtc&) {
    if (result.first_dtc < 0) result.first_dtc = kernel.now();
  });
  modes.on_transition([&result, &kernel, &bundle](const std::string&,
                                                  const std::string& to) {
    if (to == bundle.degraded_mode && result.first_degrade < 0) {
      result.first_degrade = kernel.now();
    }
  });

  if (!result.baseline) {
    install_faults(kernel, sys, {result.fault},
                   sim::Rng(cfg_.seed).fork(index));
  }

  // The rv heartbeat (cf. the closed-loop recovery tests): close monitor
  // windows and run DEM aging periodically, in observer order so it never
  // perturbs same-instant application events.
  kernel.schedule_periodic(
      cfg_.heartbeat, cfg_.heartbeat,
      [&sys, &dem] {
        if (sys.monitors() != nullptr) sys.monitors()->flush();
        dem.operation_cycle_end();
      },
      sim::EventOrder::kObserver);

  sys.run_for(cfg_.horizon);
  result.events_executed = kernel.events_executed();

  result.violations = evidence.detections.size();
  for (const auto& d : evidence.detections) {
    if (!result.baseline && d.when < result.onset) continue;
    if (result.first_violation < 0 || d.when < result.first_violation) {
      result.first_violation = d.when;
    }
    result.detectors |= d.detector;
  }
  if (result.first_dtc >= result.onset && result.first_dtc >= 0) {
    result.detectors |= kDetDem;
  }
  if (result.first_degrade >= result.onset && result.first_degrade >= 0) {
    result.detectors |= kDetMode;
  }

  result.outcome = result.baseline
                       ? classify(evidence, Domain{})
                       : classify(evidence,
                                  domain_of(result.fault, bundle.plan));
  return result;
}

Report Campaign::run() const {
  if (!faults_.empty()) {
    const ModelBundle bundle = factory_();
    validation::check_faults(vfb::lower(bundle.model, bundle.plan), faults_);
  }
  const std::size_t n = scenario_count();
  std::vector<ScenarioResult> results(n);
  // A scenario that throws (e.g. a model System rejects) stops the hand-out;
  // every index handed out still runs, so the lowest failing index — the
  // one rethrown — is the same on any thread count.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> next{0};
  const auto worker = [this, n, &next, &results, &errors, &failed] {
    while (!failed) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        results[i] = run_scenario(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
  };
  if (cfg_.threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(cfg_.threads);
    for (std::size_t t = 0; t < cfg_.threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Aggregation is sequential over the index-ordered results, so the report
  // is independent of which worker ran which scenario.
  Report report;
  report.scenarios = std::move(results);
  for (const auto& r : report.scenarios) {
    if (r.baseline) {
      ++report.baselines;
      if (r.outcome == Outcome::kSpurious) ++report.spurious_baselines;
      continue;
    }
    ClassStats& cs =
        report.matrix[std::string(to_string(fault_class(r.fault.kind)))];
    ++cs.total;
    switch (r.outcome) {
      case Outcome::kContained:
        ++cs.detected;
        ++cs.contained;
        break;
      case Outcome::kDetected:
        ++cs.detected;
        ++cs.leaked;
        break;
      case Outcome::kMissed:
        ++cs.missed;
        break;
      case Outcome::kSpurious:
        ++cs.spurious;
        break;
      case Outcome::kNominal:
        break;
    }
    for (std::size_t bit = 0; bit < kDetectorCount; ++bit) {
      if ((r.detectors & (1u << bit)) != 0) ++cs.by_detector[bit];
    }
    if (r.outcome == Outcome::kContained || r.outcome == Outcome::kDetected) {
      if (r.first_violation >= r.onset) {
        report.detection_latency.add(
            static_cast<double>(r.first_violation - r.onset));
      }
      if (r.first_dtc >= r.onset) {
        report.confirmation_latency.add(
            static_cast<double>(r.first_dtc - r.onset));
      }
      if (r.first_degrade >= r.onset) {
        report.reaction_latency.add(
            static_cast<double>(r.first_degrade - r.onset));
      }
    }
  }
  return report;
}

}  // namespace orte::fi
