// Experiment E13 — Static fault-detectability vs measured campaign outcomes
// (rules V13-V15, cross-checked against E9b).
//
// Phase 1 runs the static detectability analysis over the brake_by_wire
// workload for the standard fault grid plus the fail-silent pedal crash and
// prints the per-fault verdict (perturbs / detectable / contained /
// containment gap, plus the observing monitor planes).
//
// Phase 2 runs the SAME fault list through the fi campaign and asserts the
// static verdicts predict every measured outcome: predicted-undetectable
// faults score missed in every replicate, predicted-detectable ones are
// detected, a predicted containment holds, a predicted gap leaks.
//
// Phase 3 flips DeploymentPlan::alive_supervision — the V13/V15 fix — and
// asserts the crash is now detected by the watchdog (detector "alive"),
// contained to the pedal, with zero spurious expiries.
//
// The process exits non-zero on any static/dynamic disagreement, a missed
// supervised crash, or any spurious outcome, so the analysis can never
// silently drift away from what the campaign measures.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fi/campaign.hpp"
#include "fi/fault.hpp"
#include "fi/workloads.hpp"
#include "validation/detectability.hpp"

using namespace orte;

namespace {

/// Measured outcome counts of one fault plane, aggregated over replicates.
struct Measured {
  std::size_t detected = 0;  ///< kDetected (leaked) outcomes.
  std::size_t contained = 0;
  std::size_t missed = 0;
  std::size_t spurious = 0;
  unsigned detectors = 0;
};

std::vector<Measured> aggregate(const fi::Report& report,
                                std::size_t faults, std::size_t replicates) {
  std::vector<Measured> out(faults);
  for (const auto& s : report.scenarios) {
    if (s.baseline) continue;
    Measured& m = out.at((s.index - 1) / replicates);
    m.detectors |= s.detectors;
    switch (s.outcome) {
      case fi::Outcome::kDetected:
        ++m.detected;
        break;
      case fi::Outcome::kContained:
        ++m.contained;
        break;
      case fi::Outcome::kMissed:
        ++m.missed;
        break;
      case fi::Outcome::kSpurious:
        ++m.spurious;
        break;
      case fi::Outcome::kNominal:
        break;
    }
  }
  return out;
}

/// Zero disagreements is the acceptance bar: every replicate's outcome must
/// land where the static verdict says it can.
bool agrees(const validation::FaultVerdict& v, const Measured& m,
            std::size_t replicates) {
  if (m.spurious > 0) return false;
  if (!v.detectable) return m.missed == replicates;
  if (m.missed > 0) return false;
  if (v.contained) return m.contained == replicates;
  if (v.containment_gap) return m.detected == replicates;
  return true;  // Detectable with mixed containment: either outcome is fine.
}

}  // namespace

int main() {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);

  // --- Phase 1: static verdicts over the grid + the fail-silent crash --------
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  std::vector<fi::Fault> faults = fi::workloads::standard_faults();
  faults.push_back(
      fi::Fault{.kind = fi::FaultKind::kTaskCrash, .target = "pedal"});

  const validation::DetectabilityAnalysis analysis =
      validation::analyze_detectability(bundle.model, bundle.plan, faults);

  bench::print_title("E13: static fault detectability (brake_by_wire, " +
                     std::to_string(analysis.monitors.size()) +
                     " monitor planes, " + std::to_string(faults.size()) +
                     " fault planes)");
  for (const auto& v : analysis.verdicts) {
    std::string planes;
    for (const auto& o : v.observers) {
      if (!planes.empty()) planes += ", ";
      planes += to_string(o.kind);
      planes += "->";
      planes += o.blame;
    }
    std::printf("  %-22s %s%s\n", v.fault.label().c_str(),
                !v.perturbs      ? "inert (structurally contained)"
                : !v.detectable  ? "UNDETECTABLE (V13)"
                : v.containment_gap
                    ? "detectable, containment gap (V14)"
                : v.contained ? "detectable & contained"
                              : "detectable",
                planes.empty() ? "" : ("  [" + planes + "]").c_str());
  }

  // --- Phase 2: the campaign measures the same fault list --------------------
  fi::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.replicates = 10;
  cfg.threads = threads;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(); }, cfg);
  for (const auto& fault : faults) campaign.add_fault(fault);

  bench::WallClock clock;
  const fi::Report report = campaign.run();
  const std::vector<Measured> measured =
      aggregate(report, faults.size(), cfg.replicates);

  bench::JsonReport json("e13_detectability");
  std::size_t disagreements = 0;
  std::size_t spurious = report.spurious_baselines;
  std::printf("\ncross-check vs campaign (%zu scenarios):\n",
              report.scenarios.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& v = analysis.verdicts[i];
    const Measured& m = measured[i];
    const bool ok = agrees(v, m, cfg.replicates);
    disagreements += ok ? 0 : 1;
    spurious += m.spurious;
    std::printf("  %-22s predicted=%-12s measured: contained=%zu "
                "detected=%zu missed=%zu spurious=%zu  %s\n",
                v.fault.label().c_str(),
                !v.detectable       ? "missed"
                : v.contained       ? "contained"
                : v.containment_gap ? "leaked"
                                    : "detected",
                m.contained, m.detected, m.missed, m.spurious,
                ok ? "AGREE" : "DISAGREE");
    json.row("faults")
        .str("label", v.fault.label())
        .num_u("predicted_perturbs", v.perturbs ? 1 : 0)
        .num_u("predicted_detectable", v.detectable ? 1 : 0)
        .num_u("predicted_contained", v.contained ? 1 : 0)
        .num_u("predicted_gap", v.containment_gap ? 1 : 0)
        .num_u("observers", v.observers.size())
        .num_u("campaign_contained", m.contained)
        .num_u("campaign_detected", m.detected)
        .num_u("campaign_missed", m.missed)
        .num_u("campaign_spurious", m.spurious)
        .num_u("agree", ok ? 1 : 0);
  }

  // --- Phase 3: alive supervision closes the fail-silence gap ----------------
  fi::Campaign fixed([] { return fi::workloads::brake_by_wire(true); }, cfg);
  fixed.add_fault(
      fi::Fault{.kind = fi::FaultKind::kTaskCrash, .target = "pedal"});
  const fi::Report fixed_report = fixed.run();
  const std::vector<Measured> fixed_measured =
      aggregate(fixed_report, 1, cfg.replicates);
  const Measured& crash = fixed_measured.front();
  const bool crash_detected =
      crash.contained == cfg.replicates && (crash.detectors & fi::kDetAlive);
  spurious += fixed_report.spurious_baselines + crash.spurious;
  const double elapsed = clock.elapsed_ms();
  std::printf("\nwith alive supervision: crash contained=%zu/%zu "
              "alive-detector=%s spurious=%zu\n",
              crash.contained, cfg.replicates,
              (crash.detectors & fi::kDetAlive) ? "yes" : "no",
              fixed_report.spurious_baselines + crash.spurious);

  json.row("summary")
      .num_u("monitor_planes", analysis.monitors.size())
      .num_u("fault_planes", faults.size())
      .num_u("disagreements", disagreements)
      .num_u("spurious", spurious)
      .num_u("crash_detected_supervised", crash_detected ? 1 : 0)
      .num("wall_ms", elapsed);

  const bool pass = disagreements == 0 && spurious == 0 && crash_detected;
  std::printf("gate: disagreements == 0 && spurious == 0 && "
              "supervised crash detected  ->  %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
