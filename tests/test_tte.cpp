// Unit + property tests: Time-Triggered Ethernet switch — TT punctuality,
// BE starvation, class priority at the egress port.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "tte/tte_switch.hpp"

namespace {

using namespace orte;
using namespace orte::tte;
using sim::Kernel;
using sim::Time;
using sim::Trace;
using sim::microseconds;
using sim::milliseconds;

struct Fixture {
  Kernel kernel;
  Trace trace;
  TteSwitch sw{kernel, trace, {}};
};

// (instant, flow ID) of every delivery, from the retained "tte.rx" records.
std::vector<std::pair<Time, std::string>> deliveries(const Trace& trace) {
  std::vector<std::pair<Time, std::string>> out;
  for (const auto& r : trace.records()) {
    if (r.category == "tte.rx") out.emplace_back(r.when, r.subject);
  }
  return out;
}

TEST(Tte, WireTimeIncludesEthernetOverhead) {
  Fixture f;
  // 100 bytes payload + 38 overhead = 138 bytes * 8 * 10ns = 11.04 us.
  EXPECT_EQ(f.sw.tx_time(100), 11'040);
  // Minimum frame: 84 bytes on the wire.
  EXPECT_EQ(f.sw.tx_time(1), 6'720);
}

TEST(Tte, TtFrameDeliveredAtScheduledInstant) {
  Fixture f;
  auto& a = f.sw.attach("a");
  f.sw.attach("b");
  f.sw.add_flow({.id = 1, .cls = TrafficClass::kTimeTriggered, .source = 0,
                 .destination = 1, .bytes = 100,
                 .period = milliseconds(1), .offset = microseconds(100)});
  f.kernel.schedule_at(0, [&] { a.send(1, std::vector<std::uint8_t>(100)); });
  f.sw.start();
  f.kernel.run_until(milliseconds(1));
  const auto rx = deliveries(f.trace);
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].second, "1");
  // offset + ingress tx + switch latency + egress tx.
  EXPECT_EQ(rx[0].first,
            microseconds(100) + 11'040 + microseconds(2) + 11'040);
}

TEST(Tte, TtStateSemanticsLatestValueWins) {
  Fixture f;
  auto& a = f.sw.attach("a");
  f.sw.attach("b");
  f.sw.add_flow({.id = 1, .cls = TrafficClass::kTimeTriggered, .source = 0,
                 .destination = 1, .bytes = 8,
                 .period = milliseconds(1), .offset = microseconds(500)});
  f.kernel.schedule_at(0, [&] {
    a.send(1, {0x01});
    a.send(1, {0x02});
  });
  f.sw.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(f.sw.frames_delivered(), 1u);
}

TEST(Tte, EgressShufflingAndClassPriority) {
  Fixture f;
  auto& a = f.sw.attach("a");
  f.sw.attach("dst");
  f.sw.add_flow({.id = 1, .cls = TrafficClass::kTimeTriggered, .source = 0,
                 .destination = 1, .bytes = 100,
                 .period = milliseconds(1), .offset = microseconds(50)});
  f.sw.add_flow({.id = 2, .cls = TrafficClass::kBestEffort, .source = 0,
                 .destination = 1, .bytes = 500});
  f.sw.add_flow({.id = 3, .cls = TrafficClass::kBestEffort, .source = 0,
                 .destination = 1, .bytes = 1000});
  // Timeline: BE frame 2 (500B) reaches the egress at ~45us and starts
  // transmitting; the TT frame (dispatched at 50us) arrives at ~63us
  // mid-frame and must *shuffle* (wait for it to finish); BE frame 3 (1000B)
  // arrives at ~85us. When frame 2 completes (~88us) the egress serves TT
  // before the queued BE frame 3.
  f.kernel.schedule_at(0, [&] {
    a.send(3, std::vector<std::uint8_t>(1000));  // BE
    a.send(2, std::vector<std::uint8_t>(500));   // BE
    a.send(1, std::vector<std::uint8_t>(100));   // TT (buffered for 50us)
  });
  f.sw.start();
  f.kernel.run_until(milliseconds(1) - 1);
  const auto rx = deliveries(f.trace);
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[0].second, "2");  // BE frame 2 was already on the wire
  EXPECT_EQ(rx[1].second, "1");  // TT preempts the *queue*, not the wire
  EXPECT_EQ(rx[2].second, "3");  // the queued BE frame goes last
}

TEST(Tte, ConfigurationErrorsRejected) {
  Fixture f;
  f.sw.attach("a");
  f.sw.attach("b");
  EXPECT_THROW(f.sw.add_flow({.id = 1, .source = 0, .destination = 7}),
               std::invalid_argument);
  EXPECT_THROW(
      f.sw.add_flow({.id = 1, .cls = TrafficClass::kTimeTriggered,
                     .source = 0, .destination = 1, .period = 0}),
      std::invalid_argument);
  f.sw.add_flow({.id = 1, .cls = TrafficClass::kBestEffort, .source = 0,
                 .destination = 1});
  EXPECT_THROW(f.sw.add_flow({.id = 1, .cls = TrafficClass::kBestEffort,
                              .source = 0, .destination = 1}),
               std::invalid_argument);
  EXPECT_THROW(TteSwitch(f.kernel, f.trace, {.link_bandwidth_bps = 0}),
               std::invalid_argument);
}

TEST(Tte, WrongSenderRejected) {
  Fixture f;
  f.sw.attach("a");
  auto& b = f.sw.attach("b");
  f.sw.add_flow({.id = 1, .cls = TrafficClass::kBestEffort, .source = 0,
                 .destination = 1});
  f.sw.start();
  EXPECT_THROW(b.send(1, {1}), std::logic_error);
}

// Property: TT latency is invariant under arbitrary best-effort load — the
// §4 non-interference requirement on TTE.
class TteTtInvariance : public ::testing::TestWithParam<int> {};

TEST_P(TteTtInvariance, TtLatencyUnaffectedByBestEffortLoad) {
  const int be_senders = GetParam();
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  TteSwitch sw(kernel, trace, {});
  auto& tt_src = sw.attach("tt_src");
  auto& dst = sw.attach("dst");
  std::vector<TteEndpoint*> be_eps;
  for (int i = 0; i < be_senders; ++i) {
    be_eps.push_back(&sw.attach("be" + std::to_string(i)));
  }
  sw.add_flow({.id = 1, .cls = TrafficClass::kTimeTriggered, .source = 0,
               .destination = 1, .bytes = 100,
               .period = milliseconds(1), .offset = microseconds(200)});
  for (int i = 0; i < be_senders; ++i) {
    sw.add_flow({.id = static_cast<std::uint32_t>(100 + i),
                 .cls = TrafficClass::kBestEffort, .source = 2 + i,
                 .destination = 1, .bytes = 1000});
  }
  kernel.schedule_periodic(0, milliseconds(1), [&] {
    tt_src.send(1, std::vector<std::uint8_t>(100));
  });
  sim::Rng rng(static_cast<std::uint64_t>(be_senders) + 1);
  for (int i = 0; i < be_senders; ++i) {
    TteEndpoint* ep = be_eps[static_cast<std::size_t>(i)];
    const std::uint32_t id = static_cast<std::uint32_t>(100 + i);
    kernel.schedule_periodic(
        rng.uniform(0, 100'000), microseconds(120),
        [ep, id] { ep->send(id, std::vector<std::uint8_t>(1000)); });
  }
  (void)dst;
  sw.start();
  kernel.run_until(sim::seconds(1));
  const auto& lat = sw.flow_latency_us(1);
  // Jitter bound: one maximum BE frame (1038B ~ 83us) of shuffling.
  EXPECT_LT(lat.max() - lat.min(), 85.0) << "be_senders=" << be_senders;
  EXPECT_GT(lat.count(), 900u);
}

INSTANTIATE_TEST_SUITE_P(BeLoad, TteTtInvariance,
                         ::testing::Values(0, 1, 2, 4, 8));

}  // namespace
