// Unit tests: response-time analysis (tasks, CAN, FlexRay), end-to-end
// composition, TT schedule synthesis.
#include <gtest/gtest.h>

#include "analysis/can_analysis.hpp"
#include "analysis/e2e.hpp"
#include "analysis/flexray_analysis.hpp"
#include "analysis/rta.hpp"
#include "analysis/tt_schedule.hpp"
#include "sim/time.hpp"

namespace {

using namespace orte::analysis;
using orte::sim::microseconds;
using orte::sim::milliseconds;

// --- Task RTA ---------------------------------------------------------------------

std::vector<AnalysisTask> classic_set() {
  return {
      {.name = "t1", .wcet = milliseconds(1), .period = milliseconds(4),
       .priority = 3},
      {.name = "t2", .wcet = milliseconds(2), .period = milliseconds(8),
       .priority = 2},
      {.name = "t3", .wcet = milliseconds(3), .period = milliseconds(16),
       .priority = 1},
  };
}

TEST(Rta, ClassicExampleExact) {
  const auto set = classic_set();
  EXPECT_EQ(response_time(set[0], set), milliseconds(1));
  EXPECT_EQ(response_time(set[1], set), milliseconds(3));
  EXPECT_EQ(response_time(set[2], set), milliseconds(7));
}

TEST(Rta, JitterOfHigherPriorityIncreasesInterference) {
  auto set = classic_set();
  set[0].jitter = milliseconds(3);
  // t2: w = 2 + ceil((w+3)/4)*1 -> w=2: ceil(5/4)=2 -> w=4; ceil(7/4)=2 -> 4.
  EXPECT_EQ(response_time(set[1], set), milliseconds(4));
}

TEST(Rta, UnschedulableReturnsNullopt) {
  std::vector<AnalysisTask> set{
      {.name = "hp", .wcet = milliseconds(6), .period = milliseconds(10),
       .priority = 2},
      {.name = "lp", .wcet = milliseconds(6), .period = milliseconds(10),
       .priority = 1},
  };
  EXPECT_EQ(response_time(set[1], set), std::nullopt);
  const auto r = analyze(set);
  EXPECT_FALSE(r.schedulable);
  EXPECT_NEAR(r.utilization, 1.2, 1e-9);
}

TEST(Rta, AnalyzeReportsAllResponses) {
  const auto r = analyze(classic_set());
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.response.at("t3"), milliseconds(7));
  EXPECT_NEAR(r.utilization, 0.25 + 0.25 + 0.1875, 1e-9);
}

TEST(Rta, DeadlineMonotonicAssignment) {
  std::vector<AnalysisTask> set{
      {.name = "slow", .wcet = 1, .period = milliseconds(100)},
      {.name = "fast", .wcet = 1, .period = milliseconds(5)},
      {.name = "mid", .wcet = 1, .period = milliseconds(50),
       .deadline = milliseconds(10)},
  };
  assign_deadline_monotonic(set);
  // Priority order: fast (D=5) > mid (D=10) > slow (D=100).
  EXPECT_GT(set[1].priority, set[2].priority);
  EXPECT_GT(set[2].priority, set[0].priority);
}

// --- CAN analysis --------------------------------------------------------------------

TEST(CanAnalysis, SingleMessageIsFrameTimePlusBlocking) {
  std::vector<CanMessage> msgs{
      {.name = "m", .id = 1, .bytes = 8, .period = milliseconds(10)}};
  // No lower priority -> no blocking; no higher priority -> C only.
  EXPECT_EQ(can_response_time(msgs[0], msgs, 500'000), microseconds(270));
}

TEST(CanAnalysis, BlockingFromLowerPriority) {
  std::vector<CanMessage> msgs{
      {.name = "hi", .id = 1, .bytes = 1, .period = milliseconds(10)},
      {.name = "lo", .id = 9, .bytes = 8, .period = milliseconds(10)},
  };
  // hi: B = 270us (8-byte lo frame), C = (55+10)*2us = 130us.
  EXPECT_EQ(can_response_time(msgs[0], msgs, 500'000), microseconds(400));
}

TEST(CanAnalysis, InterferenceFromHigherPriority) {
  std::vector<CanMessage> msgs{
      {.name = "hi", .id = 1, .bytes = 8, .period = milliseconds(1)},
      {.name = "lo", .id = 9, .bytes = 8, .period = milliseconds(10)},
  };
  // lo: w = 270 (one hi frame) -> w+tau crosses nothing new -> R = 540us.
  EXPECT_EQ(can_response_time(msgs[1], msgs, 500'000), microseconds(540));
}

TEST(CanAnalysis, EqualIdentifiersWaitForEachOther) {
  // Two signals of one PDU share its identifier: their frames queue FIFO in
  // one controller, so each may wait for the other's.
  std::vector<CanMessage> msgs{
      {.name = "a", .id = 5, .bytes = 8, .period = milliseconds(10)},
      {.name = "b", .id = 5, .bytes = 8, .period = milliseconds(10)},
  };
  // w = 270us (the other frame), R = w + C = 540us.
  EXPECT_EQ(can_response_time(msgs[0], msgs, 500'000), microseconds(540));
  EXPECT_EQ(can_response_time(msgs[1], msgs, 500'000), microseconds(540));
}

TEST(CanAnalysis, OverloadedBusUnschedulable) {
  std::vector<CanMessage> msgs;
  for (int i = 0; i < 10; ++i) {
    msgs.push_back({.name = "m" + std::to_string(i),
                    .id = static_cast<std::uint32_t>(i), .bytes = 8,
                    .period = milliseconds(2)});
  }
  // 10 * 270us per 2ms = 135% utilization.
  const auto r = analyze_can(msgs, 500'000);
  EXPECT_FALSE(r.schedulable);
  EXPECT_GT(r.utilization, 1.0);
}

TEST(CanAnalysis, ResponseMonotoneInPriority) {
  std::vector<CanMessage> msgs;
  for (int i = 0; i < 8; ++i) {
    msgs.push_back({.name = "m" + std::to_string(i),
                    .id = static_cast<std::uint32_t>(i), .bytes = 4,
                    .period = milliseconds(10)});
  }
  const auto r = analyze_can(msgs, 500'000);
  ASSERT_TRUE(r.schedulable);
  for (int i = 1; i < 8; ++i) {
    EXPECT_GE(r.response.at("m" + std::to_string(i)),
              r.response.at("m" + std::to_string(i - 1)));
  }
}

// --- FlexRay analysis -----------------------------------------------------------------

TEST(FlexRayAnalysis, StaticBoundsMatchStructure) {
  orte::flexray::FlexRayConfig cfg;
  cfg.static_slots = 4;
  cfg.static_payload_bytes = 8;
  cfg.minislots = 20;
  cfg.minislot_len = microseconds(2);
  cfg.network_idle = microseconds(10);
  const auto lat = flexray_static_latency(cfg);
  const auto slot = orte::flexray::FlexRayBus::slot_length(cfg);
  const auto cycle = orte::flexray::FlexRayBus::cycle_length(cfg);
  EXPECT_EQ(lat.best, slot);
  EXPECT_EQ(lat.worst, cycle + slot);
  EXPECT_EQ(lat.write_to_delivery_jitter, cycle);
}

// --- End-to-end composition --------------------------------------------------------------

TEST(E2e, DirectChainSumsResponses) {
  const auto r = e2e_latency({
      {.name = "sense", .response = milliseconds(2)},
      {.name = "bus", .response = microseconds(500)},
      {.name = "act", .response = milliseconds(1)},
  });
  EXPECT_EQ(r.worst, milliseconds(3) + microseconds(500));
}

TEST(E2e, SampledStageAddsPeriod) {
  const auto r = e2e_latency({
      {.name = "sense", .response = milliseconds(2)},
      {.name = "ctrl", .response = milliseconds(1),
       .period = milliseconds(10), .sampled = true},
  });
  EXPECT_EQ(r.worst, milliseconds(13));
  EXPECT_EQ(r.jitter, r.worst);  // best case is 0 in this model
}

// --- TT schedule synthesis -----------------------------------------------------------------

TEST(TtSchedule, HyperperiodIsLcm) {
  EXPECT_EQ(hyperperiod({{.task = "a", .period = milliseconds(4)},
                         {.task = "b", .period = milliseconds(6)}}),
            milliseconds(12));
}

TEST(TtSchedule, HarmonicSetSynthesizes) {
  const auto sched = synthesize_schedule({
      {.task = "a", .period = milliseconds(5), .wcet = milliseconds(1)},
      {.task = "b", .period = milliseconds(10), .wcet = milliseconds(2)},
      {.task = "c", .period = milliseconds(20), .wcet = milliseconds(4)},
  });
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->cycle, milliseconds(20));
  // Jobs: 4 of a, 2 of b, 1 of c = 7 entries.
  EXPECT_EQ(sched->entries.size(), 7u);
  // No two reserved windows overlap.
  for (std::size_t i = 1; i < sched->windows.size(); ++i) {
    EXPECT_LE(sched->windows[i - 1].second, sched->windows[i].first);
  }
}

TEST(TtSchedule, EveryJobMeetsItsDeadline) {
  const auto sched = synthesize_schedule({
      {.task = "a", .period = milliseconds(4), .wcet = milliseconds(2)},
      {.task = "b", .period = milliseconds(8), .wcet = milliseconds(3)},
  });
  ASSERT_TRUE(sched.has_value());
  // Utilization 0.5 + 0.375: feasible non-preemptively since within each 4ms
  // frame there is room; verify windows stay within release/deadline.
  for (const auto& [start, end] : sched->windows) {
    EXPECT_LE(end - start, milliseconds(3));
  }
}

TEST(TtSchedule, InfeasibleReturnsNullopt) {
  EXPECT_EQ(synthesize_schedule({
                {.task = "a", .period = milliseconds(4),
                 .wcet = milliseconds(3)},
                {.task = "b", .period = milliseconds(4),
                 .wcet = milliseconds(3)},
            }),
            std::nullopt);
}

TEST(TtSchedule, ZeroPeriodThrows) {
  EXPECT_THROW(hyperperiod({{.task = "a", .period = 0}}),
               std::invalid_argument);
}

}  // namespace
