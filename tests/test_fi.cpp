// Fault-injection campaign engine (src/fi): scoring rules, fault-target
// resolution, the isolation-helper unification, and the brake_by_wire
// campaign's headline properties — thread-count-invariant determinism and
// non-zero detected/contained coverage for all four fault classes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "fi/campaign.hpp"
#include "fi/fault.hpp"
#include "fi/injector.hpp"
#include "fi/workloads.hpp"
#include "isolation/fault_injection.hpp"
#include "rv/health.hpp"
#include "rv/registry.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "validation/detectability.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte;
using fi::Detection;
using fi::Domain;
using fi::Evidence;
using fi::Fault;
using fi::FaultClass;
using fi::FaultKind;
using fi::Outcome;
using sim::milliseconds;

// --- Fault catalog ------------------------------------------------------------

TEST(FiFault, ClassOfEveryKind) {
  EXPECT_EQ(fi::fault_class(FaultKind::kFrameDrop), FaultClass::kBus);
  EXPECT_EQ(fi::fault_class(FaultKind::kFrameCorrupt), FaultClass::kBus);
  EXPECT_EQ(fi::fault_class(FaultKind::kFrameDelay), FaultClass::kBus);
  EXPECT_EQ(fi::fault_class(FaultKind::kBabblingIdiot), FaultClass::kBus);
  EXPECT_EQ(fi::fault_class(FaultKind::kValueCorrupt), FaultClass::kRteValue);
  EXPECT_EQ(fi::fault_class(FaultKind::kStuckAt), FaultClass::kRteValue);
  EXPECT_EQ(fi::fault_class(FaultKind::kTaskCrash), FaultClass::kTiming);
  EXPECT_EQ(fi::fault_class(FaultKind::kWcetOverrun), FaultClass::kTiming);
  EXPECT_EQ(fi::fault_class(FaultKind::kExecutionJitter),
            FaultClass::kTiming);
  EXPECT_EQ(fi::fault_class(FaultKind::kClockDrift), FaultClass::kClock);
}

TEST(FiFault, LabelNamesKindAndTarget) {
  EXPECT_EQ((Fault{.kind = FaultKind::kWcetOverrun, .target = "pedal"})
                .label(),
            "wcet_overrun:pedal");
  EXPECT_EQ((Fault{.kind = FaultKind::kBabblingIdiot}).label(),
            "babbling_idiot");
}

// --- Scoring primitives -------------------------------------------------------

TEST(FiScoring, DetectorOfMapsEveryMonitorKind) {
  EXPECT_EQ(fi::detector_of("period"), fi::kDetArrival);
  EXPECT_EQ(fi::detector_of("jitter"), fi::kDetArrival);
  EXPECT_EQ(fi::detector_of("deadline"), fi::kDetDeadline);
  EXPECT_EQ(fi::detector_of("latency"), fi::kDetLatency);
  EXPECT_EQ(fi::detector_of("range"), fi::kDetRange);
  EXPECT_EQ(fi::detector_of("automaton"), fi::kDetAutomaton);
  EXPECT_EQ(fi::detector_of("alive"), fi::kDetAlive);
  EXPECT_EQ(fi::detector_of("???"), 0u);
  EXPECT_EQ(fi::detector_of("response"), 0u);  // no monitor raises it
}

// --- classify(): one firing and one non-firing case per outcome class ---------

Evidence faulty_run(std::vector<Detection> detections) {
  Evidence e;
  e.onset = 100;
  e.detections = std::move(detections);
  return e;
}

TEST(FiScoring, NominalBaselineFiresOnlyWhenSilent) {
  Evidence clean;
  clean.baseline = true;
  EXPECT_EQ(fi::classify(clean, Domain{}), Outcome::kNominal);

  Evidence noisy = clean;
  noisy.detections.push_back({50, "pedal", fi::kDetRange});
  EXPECT_NE(fi::classify(noisy, Domain{}), Outcome::kNominal);
}

TEST(FiScoring, SpuriousOnPreOnsetDetectionOnly) {
  // A pre-onset violation means the detector cried wolf: spurious wins even
  // when a legitimate in-domain detection follows.
  Domain domain{.instances = {"pedal"}};
  EXPECT_EQ(fi::classify(faulty_run({{99, "pedal", fi::kDetRange},
                                     {150, "pedal", fi::kDetRange}}),
                         domain),
            Outcome::kSpurious);
  // A detection exactly AT onset is post-onset — not spurious.
  EXPECT_EQ(fi::classify(faulty_run({{100, "pedal", fi::kDetRange}}), domain),
            Outcome::kContained);
  // And a spurious baseline: any detection at all.
  Evidence baseline;
  baseline.baseline = true;
  baseline.detections.push_back({10, "pedal", fi::kDetRange});
  EXPECT_EQ(fi::classify(baseline, Domain{}), Outcome::kSpurious);
}

TEST(FiScoring, MissedWhenNoMonitorFires) {
  EXPECT_EQ(fi::classify(faulty_run({}), Domain{.everything = true}),
            Outcome::kMissed);
  EXPECT_NE(fi::classify(faulty_run({{200, "pedal", fi::kDetRange}}),
                         Domain{.everything = true}),
            Outcome::kMissed);
}

TEST(FiScoring, ContainedWhenEveryBlameIsInDomain) {
  Domain domain{.instances = {"pedal"}};
  EXPECT_EQ(fi::classify(faulty_run({{150, "pedal", fi::kDetRange},
                                     {160, "pedal", fi::kDetLatency}}),
                         domain),
            Outcome::kContained);
  // One blame outside the domain and containment is gone.
  EXPECT_EQ(fi::classify(faulty_run({{150, "pedal", fi::kDetRange},
                                     {160, "wheel_fl", fi::kDetDeadline}}),
                         domain),
            Outcome::kDetected);
}

TEST(FiScoring, DetectedMeansLeakedOutsideDomain) {
  // A babbling idiot has an empty domain: any blame of a real component is
  // a leak -> detected (not contained).
  Domain babble;
  EXPECT_EQ(fi::classify(faulty_run({{300, "wheel_fl", fi::kDetArrival}}),
                         babble),
            Outcome::kDetected);
  // A bus-wide domain absorbs the same evidence as contained.
  EXPECT_EQ(fi::classify(faulty_run({{300, "wheel_fl", fi::kDetArrival}}),
                         Domain{.everything = true}),
            Outcome::kContained);
}

// --- Unification with the isolation helpers -----------------------------------

// The fi adapter and a hand-wired isolation::overrunning_wcet must produce
// the SAME simulated world: identical violation streams, not just the same
// verdict.
std::vector<std::string> violations_under(bool use_fi_adapter) {
  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  vfb::System sys(kernel, trace, bundle.model, bundle.plan);

  std::vector<std::string> seen;
  sys.monitors()->on_violation([&seen, &kernel](const rv::Violation& v) {
    seen.push_back(std::to_string(kernel.now()) + "|" + v.kind + "|" +
                   v.subject);
  });

  const Fault fault{.kind = FaultKind::kWcetOverrun,
                    .target = "pedal",
                    .from = milliseconds(100),
                    .until = milliseconds(400),
                    .magnitude = 80.0};
  if (use_fi_adapter) {
    fi::install_faults(kernel, sys, {fault}, sim::Rng(1));
  } else {
    sys.task_of("pedal", milliseconds(5))
        ->transform_durations([&kernel](sim::Duration base) {
          return isolation::overrunning_wcet(kernel, base, 80.0,
                                             milliseconds(100),
                                             milliseconds(400))();
        });
  }
  sys.run_for(milliseconds(600));
  return seen;
}

TEST(FiInjector, WcetOverrunMatchesIsolationHelperExactly) {
  const auto via_fi = violations_under(/*use_fi_adapter=*/true);
  const auto via_isolation = violations_under(/*use_fi_adapter=*/false);
  ASSERT_FALSE(via_fi.empty());
  EXPECT_EQ(via_fi, via_isolation);
}

TEST(FiInjector, CrashSwallowsWritesPermanently) {
  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, bundle.model, bundle.plan);
  fi::install_faults(kernel, sys,
                     {Fault{.kind = FaultKind::kTaskCrash,
                            .target = "pedal",
                            .from = milliseconds(100)}},
                     sim::Rng(1));
  sys.run_for(milliseconds(500));
  // Writes happened before the crash, none after (the fail-silent model of
  // isolation::crashing_wcet: until is ignored, crashes are permanent).
  const auto writes = trace.count("rte.write");
  EXPECT_GT(writes, 0u);
  EXPECT_LE(writes, 100u / 5u + 1u);  // ~20 pre-crash samples at 5 ms
  EXPECT_GT(trace.count("rte.fault_drop"), 0u);
}

// --- Fault targets resolve or are rejected ------------------------------------

/// Install `fault` on a fresh brake_by_wire system (FlexRay unless `bus`
/// says otherwise); returns the rejection message, or "" when it installed.
std::string rejection_of(const Fault& fault,
                         vfb::BusKind bus = vfb::BusKind::kFlexRay) {
  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  bundle.plan.bus = bus;
  sim::Kernel kernel;
  sim::Trace trace;
  vfb::System sys(kernel, trace, bundle.model, bundle.plan);
  try {
    fi::install_faults(kernel, sys, {fault}, sim::Rng(1));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The target is rejected, and the message names it and lists `valid`.
void expect_rejected(const Fault& fault, const std::string& valid) {
  const std::string message = rejection_of(fault);
  ASSERT_FALSE(message.empty()) << fault.label() << " was accepted";
  EXPECT_NE(message.find('"' + fault.target + '"'), std::string::npos)
      << message;
  EXPECT_NE(message.find(valid), std::string::npos) << message;
}

TEST(FiTargets, FrameDropNeedsAPduNameContainingTheTarget) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kFrameDrop}), "");
  EXPECT_EQ(rejection_of({.kind = FaultKind::kFrameDrop,
                          .target = "pdu|pedal_ecu"}),
            "");
  expect_rejected({.kind = FaultKind::kFrameDrop, .target = "pedal-ecu"},
                  "pdu|pedal_ecu|5000000|0");
}

TEST(FiTargets, FrameCorruptNeedsAPduNameContainingTheTarget) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kFrameCorrupt,
                          .target = "pdu"}),
            "");
  expect_rejected({.kind = FaultKind::kFrameCorrupt, .target = "wheel_fl"},
                  "pdu|pedal_ecu|5000000|0");
}

TEST(FiTargets, FrameDelayNeedsAPduNameContainingTheTarget) {
  expect_rejected({.kind = FaultKind::kFrameDelay, .target = "sg|pedal"},
                  "pdu|pedal_ecu|5000000|0");
}

TEST(FiTargets, BabblingIdiotIgnoresItsTarget) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kBabblingIdiot,
                          .target = "anything"}),
            "");
}

TEST(FiTargets, StuckAtNeedsAWrittenSenderKey) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kStuckAt,
                          .target = "pedal.out.pos"}),
            "");
  expect_rejected({.kind = FaultKind::kStuckAt, .target = "pedal.out.pso"},
                  "pedal.out.pos");
  // A receiver slot is not written by any runnable.
  expect_rejected({.kind = FaultKind::kStuckAt, .target = "wheel_fl.in.pos"},
                  "pedal.out.pos");
}

TEST(FiTargets, ValueCorruptNeedsAWrittenKeyOrItsInstance) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kValueCorrupt,
                          .target = "pedal"}),
            "");
  expect_rejected({.kind = FaultKind::kValueCorrupt, .target = "pedal.in"},
                  "pedal.out.pos");
  expect_rejected({.kind = FaultKind::kValueCorrupt, .target = "wheel_fl"},
                  "pedal.out.pos");
}

TEST(FiTargets, TaskCrashNeedsAnInstanceOwningATask) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kTaskCrash, .target = "pedal"}),
            "");
  expect_rejected({.kind = FaultKind::kTaskCrash, .target = "pedal_ecu"},
                  "pedal, wheel_fl, wheel_fr, wheel_rl, wheel_rr");
}

TEST(FiTargets, WcetOverrunNeedsAnInstanceOwningATask) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kWcetOverrun,
                          .target = "wheel_rr"}),
            "");
  expect_rejected({.kind = FaultKind::kWcetOverrun, .target = "pedl"},
                  "pedal, wheel_fl, wheel_fr, wheel_rl, wheel_rr");
}

TEST(FiTargets, ExecutionJitterNeedsAnInstanceOwningATask) {
  expect_rejected(
      {.kind = FaultKind::kExecutionJitter, .target = "pedal.out.pos"},
                  "pedal, wheel_fl, wheel_fr, wheel_rl, wheel_rr");
}

TEST(FiTargets, ClockDriftNeedsAnEcu) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kClockDrift,
                          .target = "fl_ecu"}),
            "");
  expect_rejected({.kind = FaultKind::kClockDrift, .target = "pedal-ecu"},
                  "fl_ecu, fr_ecu, pedal_ecu, rl_ecu, rr_ecu");
}

// --- Fault parameters that would throw inside a job or never act -----------

TEST(FiTargets, ExecutionJitterMagnitudeMustLieInZeroToOne) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kExecutionJitter,
                          .target = "pedal",
                          .magnitude = 0.9}),
            "");
  // Fault's default magnitude (2.0) would make isolation::jittery_wcet
  // throw inside the first job.
  EXPECT_NE(rejection_of({.kind = FaultKind::kExecutionJitter,
                          .target = "pedal"})
                .find("magnitude 2 is outside [0, 1]"),
            std::string::npos);
  EXPECT_NE(rejection_of({.kind = FaultKind::kExecutionJitter,
                          .target = "pedal",
                          .magnitude = -0.1}),
            "");
}

TEST(FiTargets, WcetOverrunMagnitudeMustBeAtLeastOne) {
  EXPECT_EQ(rejection_of({.kind = FaultKind::kWcetOverrun,
                          .target = "pedal",
                          .magnitude = 1.0}),
            "");
  EXPECT_NE(rejection_of({.kind = FaultKind::kWcetOverrun,
                          .target = "pedal",
                          .magnitude = 0.5})
                .find("magnitude 0.5 is below 1"),
            std::string::npos);
}

TEST(FiTargets, FrameDelayIsRejectedOnFlexRayWhateverItsTarget) {
  // The static slots pin frame timing, so the delay could never act; an
  // empty target (every frame) is rejected too.
  for (const char* target : {"", "pdu"}) {
    EXPECT_NE(rejection_of({.kind = FaultKind::kFrameDelay,
                            .target = target,
                            .delay = milliseconds(4)})
                  .find("FlexRay bus ignores frame delays"),
              std::string::npos)
        << '"' << target << '"';
  }
  EXPECT_EQ(rejection_of({.kind = FaultKind::kFrameDelay,
                          .delay = milliseconds(4)},
                         vfb::BusKind::kCan),
            "");
}

TEST(FiTargets, CampaignRejectsABadParameterBeforeAnyWorkerStarts) {
  // Unchecked, the jitter magnitude throws inside a job on a worker thread
  // and the process terminates.
  fi::CampaignConfig cfg;
  cfg.threads = 2;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(); }, cfg);
  campaign.add_fault({.kind = FaultKind::kExecutionJitter, .target = "pedal"});
  EXPECT_THROW((void)campaign.run(), std::invalid_argument);
}

TEST(FiTargets, CampaignRejectsABadTargetBeforeAnyScenarioRuns) {
  fi::CampaignConfig cfg;
  cfg.threads = 2;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(); }, cfg);
  campaign.add_fault({.kind = FaultKind::kStuckAt, .target = "pedal.out.pos"});
  campaign.add_fault({.kind = FaultKind::kWcetOverrun, .target = "pedl"});
  EXPECT_THROW((void)campaign.run(), std::invalid_argument);
}

// --- The injector and the static analysis admit the same faults -------------

class FiAdmission : public ::testing::TestWithParam<vfb::BusKind> {};

TEST_P(FiAdmission, StaticAndDynamicAdmitTheSameFaults) {
  struct Case {
    Fault fault;
    bool admitted;
  };
  const bool can = GetParam() == vfb::BusKind::kCan;
  const std::vector<Case> cases = {
      // An empty value target names no written key; "pedl" no instance.
      {{.kind = FaultKind::kStuckAt}, false},
      {{.kind = FaultKind::kValueCorrupt}, false},
      {{.kind = FaultKind::kWcetOverrun, .target = "pedl"}, false},
      // A frame target is a PDU name or a prefix of it ending at a '|'.
      // Other substrings of "pdu|pedal_ecu|5000000|0" name nothing.
      {{.kind = FaultKind::kFrameDrop, .target = "pdu|pedal_ecu"}, true},
      {{.kind = FaultKind::kFrameCorrupt, .target = "pdu"}, true},
      {{.kind = FaultKind::kFrameDrop, .target = "pedal_ecu"}, false},
      {{.kind = FaultKind::kFrameCorrupt, .target = "pdu|pedal_ecu|5"}, false},
      // FlexRay's static slots pin frame timing.
      {{.kind = FaultKind::kFrameDelay, .delay = milliseconds(4)}, can},
  };
  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  bundle.plan.bus = GetParam();
  for (const auto& [fault, admitted] : cases) {
    const std::string dynamic = rejection_of(fault, GetParam());
    EXPECT_EQ(dynamic.empty(), admitted) << fault.label() << ": " << dynamic;
    std::string static_error;
    try {
      (void)validation::analyze_detectability(bundle.model, bundle.plan,
                                              {fault});
    } catch (const std::invalid_argument& e) {
      static_error = e.what();
    }
    EXPECT_EQ(static_error, dynamic) << fault.label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Buses, FiAdmission,
    ::testing::Values(vfb::BusKind::kFlexRay, vfb::BusKind::kCan),
    [](const ::testing::TestParamInfo<vfb::BusKind>& info) {
      return std::string(info.param == vfb::BusKind::kCan ? "Can" : "FlexRay");
    });

// --- Campaign over brake_by_wire ----------------------------------------------

fi::Campaign bbw_campaign(std::size_t threads, std::size_t replicates) {
  fi::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.replicates = replicates;
  cfg.threads = threads;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(); }, cfg);
  // The shared grid: one representative per expressible kind; the
  // stochastic ones (probability < 1, jitter) genuinely exercise the
  // per-scenario RNG streams.
  fi::workloads::add_standard_faults(campaign);
  return campaign;
}

TEST(FiCampaign, ExpandsBaselinePlusFaultsTimesReplicates) {
  EXPECT_EQ(bbw_campaign(1, 25).scenario_count(), 1u + 8u * 25u);
}

TEST(FiCampaign, BrakeByWireCoverageMeetsTheFloor) {
  // >= 200 scenarios (acceptance floor): 8 faults x 25 replicates + baseline.
  const fi::Report report = bbw_campaign(1, 25).run();
  ASSERT_EQ(report.scenarios.size(), 201u);

  // The fault-free baseline stays silent and nothing fires pre-onset.
  EXPECT_EQ(report.spurious_baselines, 0u);
  EXPECT_EQ(report.count(Outcome::kSpurious), 0u);

  // Every fault class has non-zero detected AND contained cells.
  for (const char* cls : {"bus", "rte_value", "timing", "clock"}) {
    ASSERT_TRUE(report.matrix.count(cls)) << cls;
    const fi::ClassStats& cs = report.matrix.at(cls);
    EXPECT_GT(cs.detected, 0u) << cls;
    EXPECT_GT(cs.contained, 0u) << cls;
  }

  // Detection floor over the whole campaign. The architectural misses are
  // known and bounded: fail-silent crashes and the TDMA-contained babbler.
  const std::size_t faulty = report.scenarios.size() - report.baselines;
  const std::size_t detected = report.count(Outcome::kContained) +
                               report.count(Outcome::kDetected);
  EXPECT_GE(detected * 100, faulty * 60) << report.render();

  // Detected scenarios progressed through the whole reaction chain.
  EXPECT_GT(report.detection_latency.count(), 0u);
  EXPECT_GT(report.confirmation_latency.count(), 0u);
  EXPECT_GT(report.reaction_latency.count(), 0u);
}

TEST(FiCampaign, ScenarioExceptionIsRethrownOnAnyThreadCount) {
  // Without wheel_rr's deployment the model fails V1, so System rejects it;
  // a fault-free campaign builds nothing up front and meets that first
  // inside a scenario.
  const auto broken = [] {
    fi::ModelBundle bundle = fi::workloads::brake_by_wire();
    bundle.plan.instances.erase("wheel_rr");
    return bundle;
  };
  std::string expected;
  try {
    const fi::ModelBundle bundle = broken();
    sim::Kernel kernel;
    sim::Trace trace;
    const vfb::System sys(kernel, trace, bundle.model, bundle.plan);
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    fi::CampaignConfig cfg;
    cfg.threads = threads;
    std::string got;
    try {
      (void)fi::Campaign(broken, cfg).run();
    } catch (const std::invalid_argument& e) {
      got = e.what();
    }
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(FiCampaign, ReportIsBitIdenticalAcrossThreadCounts) {
  const fi::Report one = bbw_campaign(1, 25).run();
  const fi::Report four = bbw_campaign(4, 25).run();

  ASSERT_EQ(one.scenarios.size(), four.scenarios.size());
  ASSERT_GE(one.scenarios.size(), 201u);
  for (std::size_t i = 0; i < one.scenarios.size(); ++i) {
    const fi::ScenarioResult& a = one.scenarios[i];
    const fi::ScenarioResult& b = four.scenarios[i];
    EXPECT_EQ(a.outcome, b.outcome) << "scenario " << i;
    EXPECT_EQ(a.detectors, b.detectors) << "scenario " << i;
    EXPECT_EQ(a.first_violation, b.first_violation) << "scenario " << i;
    EXPECT_EQ(a.first_dtc, b.first_dtc) << "scenario " << i;
    EXPECT_EQ(a.first_degrade, b.first_degrade) << "scenario " << i;
    EXPECT_EQ(a.violations, b.violations) << "scenario " << i;
  }
  // The rendered matrix (counts + latency percentiles) is byte-identical.
  EXPECT_EQ(one.render(), four.render());
}

// --- Static detectability vs measured outcomes --------------------------------

TEST(FiCrossCheck, StaticVerdictsPredictCampaignOutcomes) {
  // The acceptance property of the detectability analysis: over the standard
  // grid plus the fail-silent crash and PDU-targeted frame faults, zero
  // disagreements between the static verdict and what the campaign
  // measures. Predicted-undetectable faults
  // must score missed; predicted-detectable ones must be detected; a
  // predicted containment holds for every replicate.
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  std::vector<Fault> faults = fi::workloads::standard_faults();
  faults.push_back(Fault{.kind = FaultKind::kTaskCrash, .target = "pedal"});
  // Frame faults aimed by PDU name: the pedal ECU's frame, and every PDU.
  faults.push_back(
      Fault{.kind = FaultKind::kFrameDrop, .target = "pdu|pedal_ecu"});
  faults.push_back(Fault{.kind = FaultKind::kFrameDrop, .target = "pdu"});
  faults.push_back(
      Fault{.kind = FaultKind::kFrameCorrupt, .target = "pdu|pedal_ecu"});

  const auto analysis = orte::validation::analyze_detectability(
      bundle.model, bundle.plan, faults);
  ASSERT_EQ(analysis.verdicts.size(), faults.size());

  fi::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.replicates = 3;
  cfg.threads = 4;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(); }, cfg);
  for (const auto& fault : faults) campaign.add_fault(fault);
  const fi::Report report = campaign.run();

  for (const auto& s : report.scenarios) {
    if (s.baseline) continue;
    const auto& verdict = analysis.verdicts.at((s.index - 1) / cfg.replicates);
    const std::string label = verdict.fault.label();
    if (!verdict.detectable) {
      EXPECT_EQ(s.outcome, Outcome::kMissed)
          << label << ": predicted undetectable but a monitor fired\n"
          << report.render();
      continue;
    }
    EXPECT_TRUE(s.outcome == Outcome::kContained ||
                s.outcome == Outcome::kDetected)
        << label << ": predicted detectable but scored "
        << fi::to_string(s.outcome) << "\n"
        << report.render();
    if (verdict.contained) {
      EXPECT_EQ(s.outcome, Outcome::kContained)
          << label << ": predicted contained but a blame leaked\n"
          << report.render();
    }
    if (verdict.containment_gap) {
      EXPECT_EQ(s.outcome, Outcome::kDetected)
          << label << ": predicted a containment gap (V14) but the "
          << "campaign scored it contained\n"
          << report.render();
    }
  }
}

TEST(FiCrossCheck, AliveSupervisionDetectsAndContainsTheCrash) {
  // The V13/V15 fix, measured: with DeploymentPlan::alive_supervision the
  // pedal's fail-silent crash trips the watchdog (detector "alive"), the
  // blame lands on the pedal (contained), and the supervised baseline stays
  // silent — the watchdog adds no spurious expiries.
  fi::CampaignConfig cfg;
  cfg.seed = 42;
  cfg.replicates = 3;
  fi::Campaign campaign([] { return fi::workloads::brake_by_wire(true); },
                        cfg);
  campaign.add_fault(Fault{.kind = FaultKind::kTaskCrash, .target = "pedal"});
  const fi::Report report = campaign.run();

  EXPECT_EQ(report.spurious_baselines, 0u) << report.render();
  EXPECT_EQ(report.count(Outcome::kSpurious), 0u) << report.render();
  for (const auto& s : report.scenarios) {
    if (s.baseline) continue;
    EXPECT_EQ(s.outcome, Outcome::kContained) << report.render();
    EXPECT_TRUE(s.detectors & fi::kDetAlive) << report.render();
  }

  // And the static analysis agrees on the supervised bundle.
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire(true);
  const auto analysis = orte::validation::analyze_detectability(
      bundle.model, bundle.plan,
      {Fault{.kind = FaultKind::kTaskCrash, .target = "pedal"}});
  ASSERT_EQ(analysis.verdicts.size(), 1u);
  EXPECT_TRUE(analysis.verdicts.front().detectable);
  EXPECT_TRUE(analysis.verdicts.front().contained);
  ASSERT_FALSE(analysis.verdicts.front().observers.empty());
  EXPECT_EQ(analysis.verdicts.front().observers.front().kind,
            orte::validation::MonitorPlane::Kind::kAlive);
}

}  // namespace
