// Unit tests: NoC — TDMA vs FCFS arbitration, guardian-by-construction
// containment, CAN overlay middleware.
#include <gtest/gtest.h>

#include <vector>

#include "noc/can_overlay.hpp"
#include "noc/noc.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace {

using namespace orte::noc;
using orte::sim::Kernel;
using orte::sim::Time;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;

struct Fixture {
  Kernel kernel;
  Trace trace;
};

NocConfig config(Arbitration arb) {
  NocConfig cfg;
  cfg.arbitration = arb;
  cfg.link_bandwidth_bps = 100'000'000;  // 80ns per byte
  cfg.slot_len = microseconds(10);
  return cfg;
}

NocMessage msg(int dst, std::size_t bytes, std::string name = "m") {
  NocMessage m;
  m.destination = dst;
  m.bytes = bytes;
  m.name = std::move(name);
  return m;
}

TEST(Noc, InvalidConfigRejected) {
  Fixture f;
  NocConfig zero_bandwidth = config(Arbitration::kTdma);
  zero_bandwidth.link_bandwidth_bps = 0;
  EXPECT_THROW(Noc(f.kernel, f.trace, zero_bandwidth), std::invalid_argument);
  NocConfig no_slot = config(Arbitration::kTdma);
  no_slot.slot_len = 0;
  EXPECT_THROW(Noc(f.kernel, f.trace, no_slot), std::invalid_argument);
}

TEST(Noc, TdmaDeliversWithinOwnSlot) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<Time> rx;
  b.on_receive([&](const NocMessage&) { rx.push_back(f.kernel.now()); });
  f.kernel.schedule_at(0, [&] { a.send(msg(1, 100)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  // Core 0's t=0 slot drains before the send lands, so the message goes out
  // in core 0's next slot (period 20us); 100 bytes at 100Mbit/s = 8us.
  EXPECT_EQ(rx[0], microseconds(28));
  EXPECT_EQ(b.messages_received(), 1u);
  EXPECT_EQ(a.messages_sent(), 1u);
}

TEST(Noc, TdmaMessageWaitsForOwnersSlot) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<Time> rx;
  a.on_receive([&](const NocMessage&) { rx.push_back(f.kernel.now()); });
  // b sends at t=1us; b's slot spans [10us, 20us).
  f.kernel.schedule_at(microseconds(1), [&] { b.send(msg(0, 100)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], microseconds(18));
}

TEST(Noc, TdmaOversizedMessageRejected) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  noc.attach("b");
  // Slot capacity: 10us / 80ns = 125 bytes.
  EXPECT_EQ(noc.slot_capacity_bytes(), 125u);
  EXPECT_THROW(a.send(msg(1, 126)), std::invalid_argument);
}

TEST(Noc, TdmaBabblerCannotDelayOthers) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  (void)a;
  std::vector<double> latencies;
  c.on_receive([&](const NocMessage& m) {
    if (m.name == "useful") {
      latencies.push_back(orte::sim::to_us(m.delivered_at - m.enqueued_at));
    }
  });
  // Core 0 babbles broadcast floods; core 1 sends a useful message per 100us.
  noc.inject_babble(0, 100, microseconds(5), 0, milliseconds(10));
  f.kernel.schedule_periodic(0, microseconds(100), [&] {
    b.send(msg(2, 100, "useful"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(10));
  ASSERT_GT(latencies.size(), 50u);
  // b's slot comes once per 30us period: worst case wait < period + tx.
  for (double l : latencies) EXPECT_LT(l, 40.0);
}

TEST(Noc, FcfsBabblerStarvesOthers) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kFcfs));
  noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  std::vector<double> latencies;
  c.on_receive([&](const NocMessage& m) {
    if (m.name == "useful") {
      latencies.push_back(orte::sim::to_us(m.delivered_at - m.enqueued_at));
    }
  });
  // Babbler floods a 100Mbit link with 125-byte (10us) messages every 5us:
  // demand is 2x the link capacity, the FIFO backlog grows without bound.
  noc.inject_babble(0, 125, microseconds(5), 0, milliseconds(10));
  f.kernel.schedule_periodic(0, microseconds(100), [&] {
    b.send(msg(2, 100, "useful"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(10));
  ASSERT_GT(latencies.size(), 10u);
  // Later useful messages see ever-growing queueing delay.
  EXPECT_GT(latencies.back(), 100.0);
  EXPECT_GT(latencies.back(), latencies.front() * 5);
}

TEST(Noc, FcfsFifoOrderWithoutContention) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kFcfs));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<std::string> order;
  b.on_receive([&](const NocMessage& m) { order.push_back(m.name); });
  f.kernel.schedule_at(0, [&] {
    a.send(msg(1, 10, "first"));
    a.send(msg(1, 10, "second"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(Noc, BroadcastReachesAllButSender) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  int b_rx = 0, c_rx = 0, a_rx = 0;
  a.on_receive([&](const NocMessage&) { ++a_rx; });
  b.on_receive([&](const NocMessage&) { ++b_rx; });
  c.on_receive([&](const NocMessage&) { ++c_rx; });
  f.kernel.schedule_at(0, [&] { a.send(msg(-1, 10)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(a_rx, 0);
  EXPECT_EQ(b_rx, 1);
  EXPECT_EQ(c_rx, 1);
}

TEST(CanOverlay, LegacyApiDeliversFrames) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  CanOverlay ca(a), cb(b);
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> rx;
  cb.on_frame(0x123, [&](const OverlayFrame& fr) {
    rx.emplace_back(fr.id, fr.data);
  });
  f.kernel.schedule_at(0, [&] { ca.send(0x123, {0xDE, 0xAD}); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].first, 0x123u);
  EXPECT_EQ(rx[0].second, (std::vector<std::uint8_t>{0xDE, 0xAD}));
  EXPECT_EQ(ca.frames_sent(), 1u);
  EXPECT_EQ(cb.frames_received(), 1u);
}

TEST(CanOverlay, IdPriorityPreservedWithinCore) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  CanOverlay ca(a), cb(b);
  std::vector<std::uint32_t> order;
  cb.on_any([&](const OverlayFrame& fr) { order.push_back(fr.id); });
  // Burst in inverted order: the overlay's priority queue restores CAN
  // arbitration order.
  f.kernel.schedule_at(0, [&] {
    ca.send(0x300, {1});
    ca.send(0x100, {2});
    ca.send(0x200, {3});
  });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x100, 0x200, 0x300}));
  EXPECT_EQ(cb.order_inversions(), 0u);
}

TEST(CanOverlay, RejectsNonCanParameters) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  CanOverlay ca(a);
  EXPECT_THROW(ca.send(0x800, {1}), std::invalid_argument);
  EXPECT_THROW(ca.send(1, std::vector<std::uint8_t>(9, 0)),
               std::invalid_argument);
}

}  // namespace
