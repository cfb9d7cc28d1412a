// Tests for the extension subsystems: clock synchronization, holistic
// distributed analysis, PDU-router gateway.
#include <gtest/gtest.h>

#include "analysis/holistic.hpp"
#include "bsw/pdu_router.hpp"
#include "can/can_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "ttp/clock_sync.hpp"

namespace {

using namespace orte;
using sim::Kernel;
using sim::Trace;
using sim::microseconds;
using sim::milliseconds;

// --- Clock synchronization --------------------------------------------------------

TEST(ClockSync, FreeRunningClocksDiverge) {
  Kernel kernel;
  Trace trace;
  ttp::ClockSyncCluster cluster(kernel, trace,
                                {.nodes = 4, .max_drift_ppm = 100,
                                 .enable_sync = false, .seed = 3});
  cluster.start();
  kernel.run_until(sim::seconds(10));
  // 100 ppm over 10 s can diverge by up to 2 ms between extreme clocks.
  EXPECT_GT(cluster.precision(), sim::microseconds(200));
}

TEST(ClockSync, FtaBoundsPrecision) {
  Kernel kernel;
  Trace trace;
  ttp::ClockSyncCluster cluster(
      kernel, trace,
      {.nodes = 4, .max_drift_ppm = 100,
       .resync_interval = milliseconds(10), .seed = 3});
  cluster.start();
  kernel.run_until(sim::seconds(10));
  // Pi ~ 2*rho*R + eps = 2 * 1e-4 * 10ms + 1us = 3us; allow margin.
  EXPECT_LT(cluster.worst_precision(), microseconds(10));
  EXPECT_EQ(cluster.rounds(), 1000u);
}

TEST(ClockSync, ByzantineClockExcludedByFta) {
  Kernel kernel;
  Trace trace;
  ttp::ClockSyncCluster cluster(
      kernel, trace,
      {.nodes = 5, .max_drift_ppm = 100,
       .resync_interval = milliseconds(10), .fault_tolerance = 1,
       .seed = 9});
  cluster.inject_byzantine(2, milliseconds(5), sim::seconds(1));
  cluster.start();
  kernel.run_until(sim::seconds(5));
  // Healthy nodes stay mutually synchronized despite node 2's 5ms error.
  sim::Time lo = INT64_MAX, hi = INT64_MIN;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    lo = std::min(lo, cluster.local_time(i));
    hi = std::max(hi, cluster.local_time(i));
  }
  EXPECT_LT(hi - lo, microseconds(10));
  // And the byzantine node really is off.
  EXPECT_GT(cluster.local_time(2) - lo, milliseconds(4));
}

TEST(ClockSync, TooFewNodesForFtaRejected) {
  Kernel kernel;
  Trace trace;
  EXPECT_THROW(ttp::ClockSyncCluster(kernel, trace,
                                     {.nodes = 2, .fault_tolerance = 1}),
               std::invalid_argument);
}

// --- Holistic analysis ---------------------------------------------------------------

TEST(Holistic, SingleChainConverges) {
  using Source = analysis::DistTask::Source;
  const std::vector<analysis::DistTask> tasks{
      {.name = "sense", .ecu = 0, .wcet = milliseconds(1),
       .period = milliseconds(10), .priority = 2},
      {.name = "act", .ecu = 1, .wcet = milliseconds(1), .priority = 2,
       .source = Source::kMessage, .from = 0}};
  const std::vector<analysis::DistMessage> messages{
      {.name = "m1", .id = 0x10, .bytes = 8, .from_task = 0}};
  const auto r = analysis::analyze_holistic(tasks, messages,
                                            {.can_bitrate_bps = 500'000});
  ASSERT_TRUE(r.schedulable);
  EXPECT_EQ(r.task_response[0], milliseconds(1));
  // m1: jitter 1ms + C 270us; act: jitter = R(m1), response = jitter + 1ms.
  EXPECT_EQ(r.message_response[0], milliseconds(1) + microseconds(270));
  EXPECT_EQ(r.task_response[1],
            milliseconds(1) + microseconds(270) + milliseconds(1));
  EXPECT_GE(r.iterations, 2);
}

TEST(Holistic, JitterCouplingRaisesInterference) {
  // Two chains sharing ECU B: the low-priority receiver suffers from the
  // high-priority receiver's inherited jitter.
  using Source = analysis::DistTask::Source;
  const std::vector<analysis::DistTask> tasks{
      {.name = "s1", .ecu = 0, .wcet = milliseconds(2),
       .period = milliseconds(10), .priority = 2},
      {.name = "s2", .ecu = 0, .wcet = milliseconds(1),
       .period = milliseconds(20), .priority = 1},
      {.name = "r1", .ecu = 1, .wcet = milliseconds(2), .priority = 2,
       .source = Source::kMessage, .from = 0},
      {.name = "r2", .ecu = 1, .wcet = milliseconds(2), .priority = 1,
       .source = Source::kMessage, .from = 1}};
  const std::vector<analysis::DistMessage> messages{
      {.name = "m1", .id = 0x10, .bytes = 8, .from_task = 0},
      {.name = "m2", .id = 0x20, .bytes = 8, .from_task = 1}};
  const auto r = analysis::analyze_holistic(tasks, messages,
                                            {.can_bitrate_bps = 500'000});
  ASSERT_TRUE(r.schedulable);
  // r2 sees r1's interference inflated by r1's jitter: its response exceeds
  // the jitter-free bound 2 + 2 = 4ms.
  EXPECT_GT(r.task_response[3], milliseconds(4));
  // Each receiver inherits its own chain head's period.
  EXPECT_EQ(r.period[2], milliseconds(10));
  EXPECT_EQ(r.period[3], milliseconds(20));
}

TEST(Holistic, OverloadedEcuUnschedulable) {
  const std::vector<analysis::DistTask> tasks{
      {.name = "a", .ecu = 0, .wcet = milliseconds(6),
       .period = milliseconds(10), .priority = 2},
      {.name = "b", .ecu = 0, .wcet = milliseconds(6),
       .period = milliseconds(10), .priority = 1}};
  const auto r =
      analysis::analyze_holistic(tasks, {}, {.can_bitrate_bps = 500'000});
  EXPECT_FALSE(r.schedulable);
}

TEST(Holistic, ChainBoundIsSafeAgainstSimulation) {
  // Cross-check the holistic bound against the executable system: the
  // integration-test control path (sense -> m -> act) simulated on the RTE
  // stack must stay within the holistic chain latency.
  const std::vector<analysis::DistTask> tasks{
      {.name = "sense", .ecu = 0, .wcet = microseconds(200),
       .period = milliseconds(10), .priority = 1},
      {.name = "act", .ecu = 1, .wcet = microseconds(200), .priority = 1,
       .source = analysis::DistTask::Source::kMessage, .from = 0}};
  const std::vector<analysis::DistMessage> messages{
      {.name = "m", .id = 0x100, .bytes = 8, .from_task = 0}};
  const auto r = analysis::analyze_holistic(tasks, messages,
                                            {.can_bitrate_bps = 500'000});
  ASSERT_TRUE(r.schedulable);
  // Simulated equivalent (see test_integration's ControlPath, 2 stages):
  // activation -> 200us task -> 270us frame -> 200us task = 670us, which the
  // holistic bound on the chain tail must dominate.
  EXPECT_GE(r.task_response[1], microseconds(670));
  EXPECT_LE(r.task_response[1], milliseconds(1));
}

// --- PDU router -------------------------------------------------------------------------

TEST(PduRouter, ForwardsAcrossBuses) {
  Kernel kernel;
  Trace trace;
  can::CanBus bus1(kernel, trace, {.name = "b1"});
  can::CanBus bus2(kernel, trace, {.name = "b2"});
  auto& src = bus1.attach();
  auto& gw_in = bus1.attach();
  auto& gw_out = bus2.attach();
  auto& dst = bus2.attach();
  bsw::PduRouter router(kernel, trace, "gw");
  router.add_route(gw_in, gw_out,
                   {.match_id = 0x30, .processing = microseconds(500)});
  std::vector<std::pair<sim::Time, std::uint32_t>> rx;
  dst.on_receive([&](const net::Frame& f) {
    rx.emplace_back(kernel.now(), f.id);
  });
  kernel.schedule_at(0, [&] {
    net::Frame f;
    f.id = 0x30;
    f.name = "sig";
    f.payload.assign(4, 1);
    f.enqueued_at = kernel.now();
    src.send(std::move(f));
  });
  kernel.run_until(milliseconds(10));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].second, 0x30u);  // the id crosses the gateway unchanged
  // bus1 frame (190us, 4 bytes) + 500us gateway + bus2 frame (190us).
  EXPECT_EQ(rx[0].first, microseconds(190 + 500 + 190));
  EXPECT_EQ(router.frames_forwarded(), 1u);
}

TEST(PduRouter, NonMatchingIdsIgnored) {
  Kernel kernel;
  Trace trace;
  can::CanBus bus1(kernel, trace, {});
  can::CanBus bus2(kernel, trace, {});
  auto& src = bus1.attach();
  auto& gw_in = bus1.attach();
  auto& gw_out = bus2.attach();
  auto& dst = bus2.attach();
  bsw::PduRouter router(kernel, trace, "gw");
  router.add_route(gw_in, gw_out, {.match_id = 0x30});
  int rx = 0;
  dst.on_receive([&](const net::Frame&) { ++rx; });
  kernel.schedule_at(0, [&] {
    net::Frame f;
    f.id = 0x31;
    f.payload.assign(1, 0);
    src.send(std::move(f));
  });
  kernel.run_until(milliseconds(10));
  EXPECT_EQ(rx, 0);
  EXPECT_EQ(router.frames_forwarded(), 0u);
}

}  // namespace
