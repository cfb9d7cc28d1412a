// Runtime-verification layer: online monitors, health report, DEM/mode
// escalation, trace exporters, and the vfb::System auto-population pass.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "contracts/contract.hpp"
#include "contracts/timed_automaton.hpp"
#include "rv/health.hpp"
#include "rv/monitors.hpp"
#include "rv/registry.hpp"
#include "rv/trace_export.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte;
using orte::test::records_of;

// --- Monitor units (records fed straight through a Trace) --------------------

TEST(ArrivalMonitor, LateUpdateViolatesPeriod) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C_Pedal",
                   .subject = "pedal.pedal.stamp",
                   .period = sim::milliseconds(5)});
  trace.emit(0, "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::milliseconds(5), "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::milliseconds(12), "rte.write", "pedal.pedal.stamp");
  // Other subjects in the same category are ignored.
  trace.emit(sim::milliseconds(13), "rte.write", "other.port.elem");

  ASSERT_EQ(reg.health().total(), 1u);
  const rv::Violation& v = reg.health().violations().front();
  EXPECT_EQ(v.contract, "C_Pedal");
  EXPECT_EQ(v.kind, "period");
  EXPECT_EQ(v.observed, sim::milliseconds(7));
  EXPECT_EQ(v.bound, sim::milliseconds(5));
  EXPECT_EQ(v.when, sim::milliseconds(12));
}

TEST(ArrivalMonitor, JitterBoundCatchesEarlyAndLate) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "s",
                   .period = sim::milliseconds(5),
                   .jitter = sim::milliseconds(1)});
  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(5), "rte.write", "s");   // nominal
  trace.emit(sim::milliseconds(8), "rte.write", "s");   // 3 ms: 2 ms deviation
  trace.emit(sim::milliseconds(11), "rte.write", "s");  // 3 ms: 2 ms deviation
  trace.emit(sim::milliseconds(13), "rte.write", "s");  // 2 ms: 3 ms deviation
  ASSERT_EQ(reg.health().total(), 3u);
  for (const rv::Violation& v : reg.health().violations()) {
    EXPECT_EQ(v.kind, "jitter");
  }
  EXPECT_EQ(reg.health().violations()[0].observed, sim::milliseconds(2));
  EXPECT_EQ(reg.health().violations()[0].bound, sim::milliseconds(1));
  // Consecutive violations grow the streak (confidence counter).
  EXPECT_EQ(reg.health().violations()[2].streak, 3u);
}

TEST(ArrivalMonitor, FasterThanPromisedRefinesWithoutJitterBound) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "s",
                   .period = sim::milliseconds(5)});
  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(2), "rte.write", "s");  // faster is fine
  trace.emit(sim::milliseconds(4), "rte.write", "s");
  EXPECT_TRUE(reg.health().healthy());
}

TEST(DeadlineMonitor, MissRecordsRaiseAndCompletionResetsStreak) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_deadline({.contract = "C_Brake",
                    .task = "tk|brake|5000000",
                    .deadline = sim::milliseconds(5)});
  trace.emit(sim::milliseconds(5), "task.deadline_miss", "tk|brake|5000000");
  trace.emit(sim::milliseconds(10), "task.deadline_miss", "tk|brake|5000000");
  ASSERT_EQ(reg.health().total(), 2u);
  EXPECT_EQ(reg.health().violations()[1].streak, 2u);
  EXPECT_EQ(reg.health().violations()[1].kind, "deadline");
  EXPECT_EQ(reg.health().violations()[1].bound, sim::milliseconds(5));
  // In-bound completion resets the streak.
  trace.emit(sim::milliseconds(14), "task.complete", "tk|brake|5000000",
             sim::milliseconds(4));
  trace.emit(sim::milliseconds(20), "task.deadline_miss", "tk|brake|5000000");
  EXPECT_EQ(reg.health().violations()[2].streak, 1u);
}

TEST(LatencyMonitor, ChainLatencyOverBoundRaises) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  auto& m = reg.add_latency({.contract = "C_E2E",
                             .source_subject = "pedal.pedal.stamp",
                             .sink_subject = "brake",
                             .sink_detail = "control",
                             .bound = sim::milliseconds(1)});
  trace.emit(0, "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::microseconds(500), "rte.runnable", "brake", 0, "control");
  trace.emit(sim::milliseconds(5), "rte.write", "pedal.pedal.stamp");
  // A different runnable of the sink instance does not consume the cause.
  trace.emit(sim::milliseconds(6), "rte.runnable", "brake", 0, "housekeeping");
  trace.emit(sim::milliseconds(7), "rte.runnable", "brake", 0, "control");
  ASSERT_EQ(reg.health().total(), 1u);
  EXPECT_EQ(reg.health().violations()[0].kind, "latency");
  EXPECT_EQ(reg.health().violations()[0].observed, sim::milliseconds(2));
  EXPECT_EQ(reg.health().violations()[0].subject,
            "pedal.pedal.stamp -> brake");
  EXPECT_EQ(m.samples(), 2u);
  EXPECT_EQ(m.worst(), sim::milliseconds(2));
}

TEST(LatencyMonitor, StarvedSinkDropsOldestAndReports) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_latency({.contract = "C",
                   .source_subject = "src",
                   .sink_subject = "snk",
                   .bound = sim::milliseconds(1)});
  // A full window of causes with no sink activity is still silent...
  constexpr auto kWindow =
      static_cast<sim::Time>(rv::LatencyMonitor::kMaxInFlight);
  for (sim::Time i = 0; i < kWindow; ++i) {
    trace.emit(sim::milliseconds(i), "rte.write", "src");
  }
  EXPECT_TRUE(reg.health().healthy());
  // ...and one more cause drops the oldest, reporting the age it reached.
  trace.emit(sim::milliseconds(kWindow), "rte.write", "src");
  ASSERT_EQ(reg.health().total(), 1u);
  EXPECT_EQ(reg.health().violations()[0].detail,
            "sink starved: dropped unmatched cause");
  EXPECT_EQ(reg.health().violations()[0].observed, sim::milliseconds(kWindow));
}

TEST(AutomatonMonitor, LateResponseViolatesAndSelfHeals) {
  // req -> rsp within 5 time units (tick = 1 ms).
  contracts::TimedAutomaton ta;
  const int idle = ta.add_location("idle");
  const int wait = ta.add_location("wait");
  const int c = ta.add_clock("c");
  ta.add_edge(idle, wait, "req", {}, {c});
  ta.add_edge(wait, idle, "rsp",
              {{c, contracts::TimedAutomaton::Constraint::Op::kLe, 5}});

  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  rv::AutomatonSpec spec;
  spec.contract = "C_ReqRsp";
  spec.automaton = ta;
  spec.labels = {{"a.req.v", "req"}, {"b.rsp.v", "rsp"}};
  spec.tick = sim::milliseconds(1);
  auto& m = reg.add_automaton(std::move(spec));

  trace.emit(0, "rte.write", "a.req.v");
  trace.emit(sim::milliseconds(3), "rte.write", "b.rsp.v");  // in time
  EXPECT_TRUE(reg.health().healthy());
  trace.emit(sim::milliseconds(10), "rte.write", "a.req.v");
  trace.emit(sim::milliseconds(20), "rte.write", "b.rsp.v");  // 10 > 5: stuck
  ASSERT_EQ(reg.health().total(), 1u);
  EXPECT_EQ(reg.health().violations()[0].kind, "automaton");
  EXPECT_NE(reg.health().violations()[0].detail.find("stuck in location"),
            std::string::npos);
  // Self-heal: the observer resumed from the initial location.
  EXPECT_EQ(m.location(), idle);
  trace.emit(sim::milliseconds(21), "rte.write", "a.req.v");
  trace.emit(sim::milliseconds(23), "rte.write", "b.rsp.v");
  EXPECT_EQ(reg.health().total(), 1u);  // clean again
  EXPECT_EQ(m.events(), 6u);
}

// --- HealthReport -------------------------------------------------------------

TEST(HealthReport, Queries) {
  rv::HealthReport hr;
  hr.record({.contract = "A", .subject = "s1", .kind = "period"});
  hr.record({.contract = "A", .subject = "s2", .kind = "latency"});
  hr.record({.contract = "B", .subject = "s3", .kind = "period"});
  EXPECT_EQ(hr.total(), 3u);
  EXPECT_FALSE(hr.healthy());
  EXPECT_EQ(hr.stats("A")->violating, 2u);
  EXPECT_EQ(hr.stats("B")->violating, 1u);
  EXPECT_EQ(hr.stats("C"), nullptr);
  ASSERT_EQ(hr.violations().size(), 3u);
  EXPECT_EQ(hr.violations()[1].kind, "latency");
}

TEST(HealthReport, RetentionCapEvictsLogButKeepsCountersExact) {
  rv::HealthReport hr;
  constexpr int kRecords = static_cast<int>(rv::HealthReport::kRetention) + 3;
  for (int i = 0; i < kRecords; ++i) {
    hr.record({.contract = i % 2 == 0 ? "A" : "B",
               .subject = "s",
               .kind = "period",
               .when = i});
  }
  // The log is bounded to the kRetention newest records...
  ASSERT_EQ(hr.violations().size(), rv::HealthReport::kRetention);
  EXPECT_EQ(hr.violations().front().when, 3);
  EXPECT_EQ(hr.violations().back().when, kRecords - 1);
  // ...while every counter stays exact across the eviction.
  EXPECT_EQ(hr.total(), static_cast<std::size_t>(kRecords));
  ASSERT_NE(hr.stats("A"), nullptr);
  ASSERT_NE(hr.stats("B"), nullptr);
  EXPECT_EQ(hr.stats("A")->violating, 2050u);
  EXPECT_EQ(hr.stats("B")->violating, 2049u);
}

TEST(HealthReport, ViolationBudgetFollowsConfidence) {
  rv::HealthReport hr;
  // 1 violation against 1000 judged observations of a 99.9 %-confidence
  // spec: tolerated = ⌊0.001 * 1000⌋ = 1 (the epsilon must absorb the
  // binary representation of 0.999), so the contract is exactly on budget.
  hr.record({.contract = "C", .subject = "s", .kind = "period",
             .confidence = 0.999});
  hr.note_observations("C", 1000, 0.999);
  const rv::HealthReport::ContractStats* stats = hr.stats("C");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->tolerated(), 1u);
  EXPECT_EQ(stats->window_violating(), 1u);
  EXPECT_FALSE(stats->over_budget());
  // A second violation exceeds the budget.
  hr.record({.contract = "C", .subject = "s", .kind = "period",
             .confidence = 0.999});
  EXPECT_TRUE(hr.stats("C")->over_budget());
  // Closing the window resets the verdict: only new observations count.
  hr.close_window("C");
  EXPECT_EQ(hr.stats("C")->window_violating(), 0u);
  EXPECT_EQ(hr.stats("C")->window_observations(), 0u);
  EXPECT_FALSE(hr.stats("C")->over_budget());
  // Confidence 1.0 tolerates nothing.
  hr.note_observations("D", 1000000, 1.0);
  hr.record({.contract = "D", .subject = "s", .kind = "period"});
  EXPECT_EQ(hr.stats("D")->tolerated(), 0u);
  EXPECT_TRUE(hr.stats("D")->over_budget());
}

// --- Registry escalation ------------------------------------------------------

TEST(MonitorRegistry, ViolationsMatureDtcInDem) {
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::Dem dem(kernel, trace);
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C_Pedal",
                   .subject = "s",
                   .period = sim::milliseconds(5)});
  reg.report_to(dem, /*debounce_threshold=*/2);

  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(8), "rte.write", "s");  // 1st violation
  EXPECT_FALSE(dem.dtc("rv.C_Pedal").has_value());     // still debouncing
  trace.emit(sim::milliseconds(16), "rte.write", "s");  // 2nd: latches
  ASSERT_TRUE(dem.dtc("rv.C_Pedal").has_value());
  EXPECT_EQ(dem.dtc("rv.C_Pedal")->code, rv::contract_dtc_code("C_Pedal"));
  EXPECT_TRUE(dem.dtc("rv.C_Pedal")->confirmed);
}

TEST(MonitorRegistry, EscalatesToDegradedModeAndQuarantines) {
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");

  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "pedal.pedal.stamp",
                   .blame = "pedal",
                   .period = sim::milliseconds(5)});
  std::vector<std::string> quarantined;
  reg.quarantine_with([&](const std::string& instance, const rv::Violation&) {
    quarantined.push_back(instance);
  });
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/2);

  trace.emit(0, "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::milliseconds(8), "rte.write", "pedal.pedal.stamp");
  EXPECT_FALSE(reg.escalated());
  EXPECT_TRUE(modes.in("RUN"));
  trace.emit(sim::milliseconds(16), "rte.write", "pedal.pedal.stamp");
  EXPECT_TRUE(reg.escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
  // The hook receives the instance the violated spec blames.
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], "pedal");
}

TEST(MonitorRegistry, QuarantineHookAloneStaysInert) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C", .subject = "s",
                   .period = sim::milliseconds(5)});
  bool fired = false;
  reg.quarantine_with(
      [&](const std::string&, const rv::Violation&) { fired = true; });
  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(9), "rte.write", "s");
  EXPECT_EQ(reg.health().total(), 1u);
  EXPECT_FALSE(fired);  // no escalate_to: sanctions need explicit opt-in
  EXPECT_FALSE(reg.escalated());
}

TEST(MonitorRegistry, RoutesOnlyWatchedCategories) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C", .subject = "s",
                   .period = sim::milliseconds(5)});
  trace.emit(0, "rte.write", "s");
  trace.emit(1, "task.start", "t");
  trace.emit(2, "can.tx", "frame");
  EXPECT_EQ(reg.records_routed(), 1u);
  EXPECT_EQ(reg.monitor_count(), 1u);
}

// --- Violation budgets --------------------------------------------------------

TEST(MonitorRegistry, BudgetToleratesOneInTenThousandAtHighConfidence) {
  // The acceptance scenario: a 99.9 %-confidence contract that misses its
  // period once in 10 000 observations stays healthy — no DTC matures and
  // no escalation fires, because 1 violating observation is far inside the
  // tolerated = ⌊0.001 * 10000⌋ = 10 budget.
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "s",
                   .period = sim::milliseconds(5),
                   .confidence = 0.999});
  reg.report_to(dem, /*debounce_threshold=*/1);
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/1);

  // 10 001 writes -> 10 000 judged intervals; one (after write 6000) is
  // 10 ms instead of 5 ms.
  for (int i = 0; i <= 10000; ++i) {
    const sim::Duration shift = i > 6000 ? sim::milliseconds(5) : 0;
    trace.emit(sim::milliseconds(5) * i + shift, "rte.write", "s");
  }
  reg.flush();

  EXPECT_EQ(reg.health().total(), 1u);  // recorded for diagnosis...
  EXPECT_FALSE(dem.dtc("rv.C").has_value());  // ...but no DTC,
  EXPECT_FALSE(reg.escalated());              // no escalation,
  EXPECT_TRUE(modes.in("RUN"));               // no mode change.
  const rv::HealthReport::ContractStats* stats = reg.health().stats("C");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->observations, 10000u);
}

TEST(MonitorRegistry, SameTraceAtFullConfidenceEscalates) {
  // The counterpart: the identical trace under confidence = 1.0 tolerates
  // nothing — the single late interval matures a DTC and degrades the mode.
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "s",
                   .period = sim::milliseconds(5),
                   .confidence = 1.0});
  reg.report_to(dem, /*debounce_threshold=*/1);
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/1);

  for (int i = 0; i <= 10000; ++i) {
    const sim::Duration shift = i > 6000 ? sim::milliseconds(5) : 0;
    trace.emit(sim::milliseconds(5) * i + shift, "rte.write", "s");
  }

  EXPECT_EQ(reg.health().total(), 1u);
  EXPECT_TRUE(dem.dtc("rv.C").has_value());
  EXPECT_TRUE(reg.escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
}

TEST(MonitorRegistry, ExactBudgetBoundaryStaysHealthy) {
  // violations == tolerated is still within budget; only the strictly
  // greater case escalates. Confidence 0.5 over 4 judged intervals
  // tolerates ⌊0.5 * 4⌋ = 2.
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C",
                   .subject = "s",
                   .period = sim::milliseconds(5),
                   .confidence = 0.5});
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/1);

  for (const int ms : {0, 5, 13, 18, 26}) {  // intervals 5, 8, 5, 8
    trace.emit(sim::milliseconds(ms), "rte.write", "s");
  }
  EXPECT_EQ(reg.health().total(), 2u);
  EXPECT_EQ(reg.health().stats("C")->tolerated(), 2u);
  EXPECT_FALSE(reg.escalated());  // 2 violating == 2 tolerated: on budget

  trace.emit(sim::milliseconds(34), "rte.write", "s");  // 3rd late interval
  EXPECT_TRUE(reg.escalated());  // 3 > ⌊0.5 * 5⌋ = 2: over budget
  EXPECT_TRUE(modes.in("DEGRADED"));
}

TEST(MonitorRegistry, EscalationThresholdZeroCoercesToOne) {
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C", .subject = "s",
                   .period = sim::milliseconds(5)});
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/0);
  trace.emit(0, "rte.write", "s");
  EXPECT_FALSE(reg.escalated());
  trace.emit(sim::milliseconds(9), "rte.write", "s");
  EXPECT_TRUE(reg.escalated());  // 0 behaves as 1, not "never"
}

// --- Closed-loop recovery -----------------------------------------------------

TEST(ArrivalMonitor, QuarantineDropsStayUnderObservation) {
  // A quarantined component's suppressed writes surface as
  // "rte.quarantine_drop" with the same subject; the arrival monitor keeps
  // judging them so healing can be certified while the sanction holds.
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  auto& m = reg.add_arrival({.contract = "C",
                             .subject = "s",
                             .period = sim::milliseconds(5)});
  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(5), "rte.write", "s");
  // Quarantine starts: drops continue the interval chain seamlessly.
  trace.emit(sim::milliseconds(13), "rte.quarantine_drop", "s");  // 8 ms: late
  trace.emit(sim::milliseconds(18), "rte.quarantine_drop", "s");  // 5 ms: ok
  EXPECT_EQ(m.arrivals(), 4u);
  EXPECT_EQ(reg.health().total(), 1u);
  EXPECT_EQ(reg.health().violations()[0].when, sim::milliseconds(13));
}

TEST(MonitorRegistry, AgedOutDtcReleasesQuarantineAndRecoversMode) {
  // The full §2 loop at registry granularity: violate -> DTC + DEGRADED +
  // quarantine -> conforming windows heal the event -> aging erases the
  // DTC -> release hook fires, monitors resync, mode returns, escalation
  // re-arms — and a fresh fault degrades again, with no manual release().
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  modes.add_transition("DEGRADED", "RUN");
  rv::MonitorRegistry reg(trace);
  auto& monitor = reg.add_arrival({.contract = "C",
                                   .subject = "pedal.pedal.stamp",
                                   .blame = "pedal",
                                   .period = sim::milliseconds(5)});
  reg.report_to(dem, /*debounce_threshold=*/2);
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/2);
  std::vector<std::string> quarantined;
  std::vector<std::string> released;
  reg.quarantine_with([&](const std::string& instance, const rv::Violation&) {
    quarantined.push_back(instance);
  });
  reg.release_with(
      [&](const std::string& instance) { released.push_back(instance); });

  // Fault: two late intervals latch the DTC (debounce 2) and escalate
  // (threshold 2).
  trace.emit(0, "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::milliseconds(8), "rte.write", "pedal.pedal.stamp");
  trace.emit(sim::milliseconds(16), "rte.write", "pedal.pedal.stamp");
  ASSERT_TRUE(dem.dtc("rv.C").has_value());
  ASSERT_TRUE(reg.escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
  ASSERT_EQ(quarantined, (std::vector<std::string>{"pedal"}));

  // Heartbeats over conforming traffic: the first flush still sees the
  // dirty window (failed), the next two report passed and heal the event,
  // then three fault-free operation cycles age the DTC out.
  sim::Time t = sim::milliseconds(16);
  for (int beat = 0; beat < 6 && reg.escalated(); ++beat) {
    for (int i = 0; i < 4; ++i) {
      t += sim::milliseconds(5);
      trace.emit(t, "rte.quarantine_drop", "pedal.pedal.stamp");
    }
    reg.flush();
    dem.operation_cycle_end();
  }
  EXPECT_FALSE(dem.dtc("rv.C").has_value());  // aged out
  ASSERT_EQ(released, (std::vector<std::string>{"pedal"}));
  EXPECT_FALSE(reg.escalated());  // re-armed
  EXPECT_TRUE(modes.in("RUN"));   // back to the pre-escalation mode
  EXPECT_EQ(reg.recoveries(), 1u);

  // Resync: the 5 s gap to the next write is not judged as an interval.
  const std::size_t before = reg.health().total();
  trace.emit(sim::seconds(5), "rte.write", "pedal.pedal.stamp");
  EXPECT_EQ(reg.health().total(), before);
  (void)monitor;

  // Re-injected fault: the re-armed loop degrades again.
  trace.emit(sim::seconds(5) + sim::milliseconds(8), "rte.write",
             "pedal.pedal.stamp");
  trace.emit(sim::seconds(5) + sim::milliseconds(16), "rte.write",
             "pedal.pedal.stamp");
  EXPECT_TRUE(reg.escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
  ASSERT_EQ(quarantined, (std::vector<std::string>{"pedal", "pedal"}));
  EXPECT_TRUE(dem.dtc("rv.C").has_value());
}

TEST(MonitorRegistry, ExplicitRecoveryModeWins) {
  sim::Kernel kernel;
  sim::Trace trace;
  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_mode("LIMP_HOME");
  modes.add_transition("RUN", "DEGRADED");
  modes.add_transition("DEGRADED", "LIMP_HOME");
  rv::MonitorRegistry reg(trace);
  reg.add_arrival({.contract = "C", .subject = "s",
                   .period = sim::milliseconds(5)});
  reg.report_to(dem, /*debounce_threshold=*/1);
  reg.escalate_to(modes, "DEGRADED", /*threshold=*/1);
  reg.recover_to("LIMP_HOME");

  trace.emit(0, "rte.write", "s");
  trace.emit(sim::milliseconds(9), "rte.write", "s");
  ASSERT_TRUE(modes.in("DEGRADED"));
  // Heal and age out over conforming windows.
  sim::Time t = sim::milliseconds(9);
  for (int beat = 0; beat < 4 && reg.escalated(); ++beat) {
    for (int i = 0; i < 3; ++i) {
      t += sim::milliseconds(5);
      trace.emit(t, "rte.write", "s");
    }
    reg.flush();
    dem.operation_cycle_end();
  }
  EXPECT_FALSE(reg.escalated());
  EXPECT_TRUE(modes.in("LIMP_HOME"));  // declared target, not the snapshot
}

// --- Dispatch index ((category_id, subject_id) routing) ----------------------

/// Records every observe() call so tests can assert exactly which records
/// the dispatch index delivered, and with which interned IDs.
class ProbeMonitor final : public rv::Monitor {
 public:
  /// (category, subject) names, interned at subscribe() time.
  using Names = std::vector<std::pair<std::string, std::string>>;

  explicit ProbeMonitor(Names names)
      : rv::Monitor("C_Probe"), names_(std::move(names)) {}
  [[nodiscard]] std::vector<Key> subscribe(sim::Trace& trace) override {
    trace_ = &trace;
    std::vector<Key> keys;
    for (const auto& [category, subject] : names_) {
      keys.push_back(
          {trace.intern_category(category), trace.intern_subject(subject)});
    }
    return keys;
  }
  void observe(const sim::TraceEvent& rec) override {
    seen.push_back(std::string(trace_->category_name(rec.category_id)) + "/" +
                   std::string(trace_->subject_name(rec.subject_id)));
    ids_consistent = ids_consistent && rec.category_id != sim::kNoTraceId &&
                     rec.subject_id != sim::kNoTraceId;
  }

  std::vector<std::string> seen;
  bool ids_consistent = true;

 private:
  const sim::Trace* trace_ = nullptr;
  Names names_;
};

TEST(MonitorRegistry, SubjectIndexedDispatchHitsOnlyOwnSubject) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  auto a = std::make_unique<ProbeMonitor>(
      ProbeMonitor::Names{{"rte.write", "a"}});
  auto b = std::make_unique<ProbeMonitor>(
      ProbeMonitor::Names{{"rte.write", "b"}});
  ProbeMonitor* pa = a.get();
  ProbeMonitor* pb = b.get();
  reg.add(std::move(a));
  reg.add(std::move(b));

  trace.emit(0, "rte.write", "a");
  trace.emit(1, "rte.write", "b");
  trace.emit(2, "rte.write", "unwatched");
  trace.emit(3, "rte.write", "a");

  EXPECT_EQ(pa->seen, (std::vector<std::string>{"rte.write/a", "rte.write/a"}));
  EXPECT_EQ(pb->seen, (std::vector<std::string>{"rte.write/b"}));
  EXPECT_TRUE(pa->ids_consistent);
  // Routed counts any record of a watched category; delivered counts only
  // records that reached a monitor.
  EXPECT_EQ(reg.records_routed(), 4u);
  EXPECT_EQ(reg.records_delivered(), 3u);
}

TEST(MonitorRegistry, KeyNamedTwiceDeliversOnce) {
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  auto probe = std::make_unique<ProbeMonitor>(
      ProbeMonitor::Names{{"rte.write", "s"}, {"rte.write", "s"}});
  ProbeMonitor* p = probe.get();
  reg.add(std::move(probe));

  trace.emit(0, "rte.write", "s");
  EXPECT_EQ(p->seen, (std::vector<std::string>{"rte.write/s"}));
  trace.emit(1, "rte.write", "other");  // same category, unwatched subject
  EXPECT_EQ(p->seen.size(), 1u);
  EXPECT_EQ(reg.records_routed(), 2u);
  EXPECT_EQ(reg.records_delivered(), 1u);
}

TEST(MonitorRegistry, RoutedAgreesWithTraceCategoryCount) {
  // Regression: records_routed() must equal the trace's own count of the
  // watched category — the exact pre-interning contract.
  sim::Trace trace;
  rv::MonitorRegistry reg(trace);
  reg.add(std::make_unique<ProbeMonitor>(
      ProbeMonitor::Names{{"rte.write", "x"}}));
  for (int i = 0; i < 7; ++i) {
    trace.emit(i, "rte.write", i % 2 == 0 ? "x" : "y");
    trace.emit(i, "task.start", "t");
  }
  EXPECT_EQ(reg.records_routed(), trace.count("rte.write"));
  EXPECT_EQ(reg.records_routed(), 7u);
  EXPECT_EQ(reg.records_delivered(), 4u);
}

TEST(ContractDtcCode, StableAndDistinct) {
  const auto a = rv::contract_dtc_code("C_Pedal");
  EXPECT_EQ(a, rv::contract_dtc_code("C_Pedal"));
  EXPECT_LE(a, 0xFFFFFFu);
  EXPECT_NE(a, rv::contract_dtc_code("C_Brake"));
}

// --- vfb::System auto-population ---------------------------------------------

namespace bbw {

/// Brake-by-wire-like single-ECU model: pedal sensor (timing runnable) ->
/// brake controller (data-received). `sensor_period` is the *implemented*
/// sampling period; the bound contract always promises 5 ms. A non-null
/// `sample_behavior` replaces the sensor runnable's default body (used to
/// inject runtime faults the static validator cannot see).
vfb::Composition make_model(
    sim::Duration sensor_period,
    std::function<void(vfb::RunnableContext&)> sample_behavior = nullptr) {
  vfb::Composition model;

  vfb::PortInterface ipedal;
  ipedal.name = "IPedal";
  ipedal.elements.push_back(vfb::DataElement{"stamp", 64, 0, false});
  model.add_interface(ipedal);

  vfb::Runnable sample;
  sample.name = "sample";
  sample.trigger = vfb::RunnableTrigger::timing(sensor_period);
  sample.execution_time = [] { return sim::microseconds(100); };
  sample.accesses.push_back(
      {"pedal", "stamp", vfb::DataAccessKind::kExplicitWrite});
  sample.behavior = sample_behavior != nullptr
                        ? std::move(sample_behavior)
                        : [](vfb::RunnableContext& ctx) {
                            ctx.write("pedal", "stamp",
                                      static_cast<std::uint64_t>(ctx.now()));
                          };
  model.add_type({"PedalSensor",
                  {vfb::Port{"pedal", "IPedal", vfb::PortDirection::kProvided}},
                  {sample}});

  vfb::Runnable control;
  control.name = "control";
  control.trigger = vfb::RunnableTrigger::data_received("pedal", "stamp");
  control.execution_time = [] { return sim::microseconds(300); };
  control.accesses.push_back(
      {"pedal", "stamp", vfb::DataAccessKind::kExplicitRead});
  control.behavior = [](vfb::RunnableContext& ctx) {
    (void)ctx.read("pedal", "stamp");
  };
  model.add_type(
      {"BrakeController",
       {vfb::Port{"pedal", "IPedal", vfb::PortDirection::kRequired}},
       {control}});

  model.add_instance({"pedal", "PedalSensor"});
  model.add_instance({"brake", "BrakeController"});
  model.add_connector({"pedal", "pedal", "brake", "pedal"});

  // The rich-component contract: pedal promises a fresh sample every 5 ms at
  // most 2 ms old; brake assumes its input is at most 2 ms old. The pair
  // passes the static V7 compatibility check (guarantee implies assumption) —
  // only the *implementation* may drift from the promise, which is exactly
  // what the online monitors catch.
  contracts::Contract pedal_contract;
  pedal_contract.name = "C_Pedal";
  pedal_contract.guarantees.push_back(
      {.flow = "pedal.stamp",
       .timing = {.period = sim::milliseconds(5),
                  .latency = sim::milliseconds(2)}});
  model.bind_contract("pedal", pedal_contract);

  contracts::Contract brake_contract;
  brake_contract.name = "C_Brake";
  brake_contract.assumptions.push_back(
      {.flow = "pedal.stamp", .timing = {.latency = sim::milliseconds(2)}});
  model.bind_contract("brake", brake_contract);

  return model;
}

vfb::DeploymentPlan make_plan() {
  vfb::DeploymentPlan plan;
  plan.instances["pedal"] = {.ecu = "ecu"};
  plan.instances["brake"] = {.ecu = "ecu"};
  return plan;
}

/// Like make_model(5 ms), but the sensor runnable skips every other write
/// while *fault is set — the implemented rate halves to one update per
/// 10 ms, violating the 5 ms guarantee, and returns to nominal the moment
/// the flag clears. Drives the closed-loop recovery scenarios.
vfb::Composition make_faultable_model(std::shared_ptr<bool> fault) {
  return make_model(
      sim::milliseconds(5),
      [fault, n = std::make_shared<int>(0)](vfb::RunnableContext& ctx) {
        if (*fault && (++*n % 2 == 0)) return;
        ctx.write("pedal", "stamp", static_cast<std::uint64_t>(ctx.now()));
      });
}

}  // namespace bbw

TEST(SystemRv, CleanRunProducesZeroViolations) {
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  const vfb::Composition model = bbw::make_model(sim::milliseconds(5));
  vfb::System sys(kernel, trace, model, bbw::make_plan());

  ASSERT_NE(sys.monitors(), nullptr);
  // 2 deadline (pedal periodic task + brake event task), 1 arrival from
  // C_Pedal's guarantee, 1 latency from C_Brake's assumption.
  EXPECT_EQ(sys.monitors()->monitor_count(), 4u);
  sys.run_for(sim::seconds(1));
  EXPECT_TRUE(sys.monitors()->health().healthy());
  EXPECT_GT(sys.monitors()->records_routed(), 0u);
}

TEST(SystemRv, LateSensorMaturesDtcSwitchesModeAndQuarantines) {
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  // Implemented period 7 ms vs contracted 5 ms: statically invisible (the
  // validator compares contracts to contracts), caught online.
  const vfb::Composition model = bbw::make_model(sim::milliseconds(7));
  vfb::System sys(kernel, trace, model, bbw::make_plan());

  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  sys.monitors()->report_to(dem, /*debounce_threshold=*/3);
  sys.monitors()->escalate_to(modes, "DEGRADED", /*threshold=*/3);
  // Retention is off: count the sensor's quarantine drops as they happen.
  const sim::TraceId qdrop = trace.intern_category("rte.quarantine_drop");
  const sim::TraceId stamp = trace.intern_subject("pedal.pedal.stamp");
  std::size_t stamp_drops = 0;
  trace.subscribe_ids([&](const sim::TraceEvent& e) {
    if (e.category_id == qdrop && e.subject_id == stamp) ++stamp_drops;
  });

  sys.run_for(sim::seconds(1));

  // The violation names the contract and the broken bound.
  ASSERT_FALSE(sys.monitors()->health().healthy());
  const rv::Violation& v = sys.monitors()->health().violations().front();
  EXPECT_EQ(v.contract, "C_Pedal");
  EXPECT_EQ(v.kind, "period");
  EXPECT_EQ(v.bound, sim::milliseconds(5));
  EXPECT_EQ(v.observed, sim::milliseconds(7));
  EXPECT_EQ(v.subject, "pedal.pedal.stamp");

  // DEM matured a DTC for the contract.
  ASSERT_TRUE(dem.dtc("rv.C_Pedal").has_value());
  EXPECT_EQ(dem.dtc("rv.C_Pedal")->code, rv::contract_dtc_code("C_Pedal"));

  // Escalation: degraded mode + the offending SWC silenced at its RTE.
  EXPECT_TRUE(modes.in("DEGRADED"));
  EXPECT_TRUE(sys.rte("ecu").is_quarantined("pedal"));
  EXPECT_GT(sys.rte("ecu").quarantined_drops(), 0u);
  EXPECT_GT(stamp_drops, 0u);
}

TEST(SystemRv, PlanFlagDisablesTheLayer) {
  sim::Kernel kernel;
  sim::Trace trace;
  const vfb::Composition model = bbw::make_model(sim::milliseconds(5));
  vfb::DeploymentPlan plan = bbw::make_plan();
  plan.runtime_verification = false;
  vfb::System sys(kernel, trace, model, plan);
  EXPECT_EQ(sys.monitors(), nullptr);
}

TEST(SystemRv, ClosedLoopRecoveryEndToEnd) {
  // The full §2 error-handling loop on a generated system, with nothing but
  // periodic heartbeats (flush + operation cycle) from the integrator:
  // injected late-pedal fault -> rate budget exceeded -> DTC matures ->
  // DEGRADED + quarantine -> fault removed -> conforming windows heal the
  // event -> DTC ages out -> quarantine released + mode back to RUN ->
  // re-injected fault degrades again. No manual release() anywhere.
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  auto fault = std::make_shared<bool>(false);
  const vfb::Composition model = bbw::make_faultable_model(fault);
  vfb::DeploymentPlan plan = bbw::make_plan();
  plan.recovery_mode = "RUN";
  vfb::System sys(kernel, trace, model, plan);

  bsw::Dem dem(kernel, trace);
  bsw::ModeMachine modes(kernel, trace, "vehicle", "RUN");
  modes.add_mode("DEGRADED");
  modes.add_transition("RUN", "DEGRADED");
  modes.add_transition("DEGRADED", "RUN");
  sys.monitors()->report_to(dem, /*debounce_threshold=*/3);
  sys.monitors()->escalate_to(modes, "DEGRADED", /*threshold=*/3);

  const auto heartbeat = [&] {
    sys.run_for(sim::milliseconds(100));
    sys.monitors()->flush();
    dem.operation_cycle_end();
  };

  // Phase 1: nominal operation.
  for (int i = 0; i < 5; ++i) heartbeat();
  EXPECT_TRUE(sys.monitors()->health().healthy());
  EXPECT_TRUE(modes.in("RUN"));

  // Phase 2: fault injected — the sensor halves its update rate.
  *fault = true;
  for (int i = 0; i < 3; ++i) heartbeat();
  EXPECT_TRUE(sys.monitors()->escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
  EXPECT_TRUE(sys.rte("ecu").is_quarantined("pedal"));
  ASSERT_TRUE(dem.dtc("rv.C_Pedal").has_value());

  // Phase 3: fault removed — the quarantined sensor's suppressed writes
  // prove conformance, the DTC heals and ages out, and the registry
  // releases the quarantine and recovers the mode on its own.
  *fault = false;
  for (int i = 0; i < 12 && sys.monitors()->escalated(); ++i) heartbeat();
  EXPECT_FALSE(sys.monitors()->escalated());
  EXPECT_FALSE(sys.rte("ecu").is_quarantined("pedal"));
  EXPECT_TRUE(modes.in("RUN"));
  EXPECT_FALSE(dem.dtc("rv.C_Pedal").has_value());
  EXPECT_EQ(sys.monitors()->recoveries(), 1u);

  // Phase 4: a re-injected fault degrades again — the loop re-armed.
  *fault = true;
  for (int i = 0; i < 3; ++i) heartbeat();
  EXPECT_TRUE(sys.monitors()->escalated());
  EXPECT_TRUE(modes.in("DEGRADED"));
  EXPECT_TRUE(sys.rte("ecu").is_quarantined("pedal"));

  // ...and heals again once it clears.
  *fault = false;
  for (int i = 0; i < 12 && sys.monitors()->escalated(); ++i) heartbeat();
  EXPECT_EQ(sys.monitors()->recoveries(), 2u);
  EXPECT_TRUE(modes.in("RUN"));
}

// --- Rte quarantine -----------------------------------------------------------

TEST(RteQuarantine, ReleaseRestoresDelivery) {
  sim::Kernel kernel;
  sim::Trace trace;
  const vfb::Composition model = bbw::make_model(sim::milliseconds(5));
  vfb::System sys(kernel, trace, model, bbw::make_plan());
  sys.run_for(sim::milliseconds(20));
  const auto writes_before =
      records_of(trace, "rte.write", "pedal.pedal.stamp");
  EXPECT_GT(writes_before, 0u);

  sys.quarantine("pedal");
  sys.run_for(sim::milliseconds(20));
  EXPECT_EQ(records_of(trace, "rte.write", "pedal.pedal.stamp"), writes_before);
  EXPECT_GT(sys.rte("ecu").quarantined_drops(), 0u);

  sys.rte("ecu").release("pedal");
  EXPECT_FALSE(sys.rte("ecu").is_quarantined("pedal"));
  sys.run_for(sim::milliseconds(20));
  EXPECT_GT(records_of(trace, "rte.write", "pedal.pedal.stamp"), writes_before);
}

// --- Trace exporters ----------------------------------------------------------

/// Minimal JSON parser (objects, arrays, strings with escapes, numbers,
/// true/false/null) used to schema-check the Chrome trace export.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, ChromeTraceIsValidJsonWithExpectedEvents) {
  sim::Kernel kernel;
  sim::Trace trace;
  const vfb::Composition model = bbw::make_model(sim::milliseconds(5));
  vfb::System sys(kernel, trace, model, bbw::make_plan());
  sys.run_for(sim::milliseconds(50));

  const std::string json = rv::to_chrome_trace(trace.records());
  EXPECT_TRUE(MiniJson(json).parse()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Task completions become complete events with a duration.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Everything else becomes instants; subjects get thread_name metadata.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("pedal.pedal.stamp"), std::string::npos);
}

TEST(TraceExport, ChromeTraceEscapesDetails) {
  std::vector<sim::TraceRecord> records;
  records.push_back({5, "cat", "sub\"ject", 1, "line\nbreak\t\"quoted\""});
  const std::string json = rv::to_chrome_trace(records);
  EXPECT_TRUE(MiniJson(json).parse()) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceExport, CsvHistogramsAggregatePerSubject) {
  std::vector<sim::TraceRecord> records;
  records.push_back({0, "task.complete", "t1", 10, ""});
  records.push_back({1, "task.complete", "t1", 30, ""});
  records.push_back({2, "task.complete", "t1", 20, ""});
  records.push_back({3, "rte.write", "k", 5, ""});
  const std::string csv = rv::to_csv_histograms(records);
  EXPECT_NE(csv.find("category,subject,count,min,mean,max,p50,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("task.complete,t1,3,10,20,30,20,30"), std::string::npos);
  EXPECT_NE(csv.find("rte.write,k,1,5,5,5,5,5"), std::string::npos);
}

}  // namespace
