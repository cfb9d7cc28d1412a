// Unit tests: CAN bus — arbitration, non-preemption, frame timing.
#include <gtest/gtest.h>

#include <vector>

#include "can/can_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace {

using namespace orte::can;
using orte::net::Frame;
using orte::sim::Kernel;
using orte::sim::Time;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;

Frame make_frame(std::uint32_t id, std::size_t bytes, Time enq,
                 std::string name = {}) {
  Frame f;
  f.id = id;
  f.name = name.empty() ? "f" + std::to_string(id) : std::move(name);
  f.payload.assign(bytes, 0xAB);
  f.enqueued_at = enq;
  return f;
}

struct Fixture {
  Kernel kernel;
  Trace trace;
};

TEST(CanBus, FrameTimeMatchesDavisFormula) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {.bitrate_bps = 500'000});
  // (55 + 10*8) * 2us = 270us for an 8-byte frame at 500 kbit/s.
  EXPECT_EQ(bus.frame_time(8), microseconds(270));
  EXPECT_EQ(bus.frame_time(0), microseconds(110));
  EXPECT_EQ(frame_transmission_time(8, 1'000'000), microseconds(135));
}

TEST(CanBus, FanOutSharesOnePayloadBuffer) {
  // Broadcast delivery must not deep-copy the payload per receiver: every
  // controller's rx callback sees the same shared immutable buffer.
  Fixture f;
  CanBus bus(f.kernel, f.trace, {});
  auto& tx = bus.attach();
  std::vector<orte::net::Payload> seen;
  for (int i = 0; i < 4; ++i) {
    bus.attach().on_receive([&](const Frame& fr) {
      seen.push_back(fr.payload);
    });
  }
  f.kernel.schedule_at(0, [&] { tx.send(make_frame(0x10, 8, 0)); });
  f.kernel.run_until(milliseconds(10));
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i].shares_buffer_with(seen[0]));
  }
  EXPECT_EQ(seen[0].bytes(), std::vector<std::uint8_t>(8, 0xAB));
}

TEST(CanBus, LowestIdWinsArbitration) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {});
  auto& a = bus.attach();
  auto& b = bus.attach();
  auto& c = bus.attach();
  std::vector<std::uint32_t> rx_order;
  c.on_receive([&](const Frame& fr) { rx_order.push_back(fr.id); });
  // Enqueue while the bus is idle at t=0; all three pend simultaneously.
  f.kernel.schedule_at(0, [&] {
    a.send(make_frame(0x30, 8, 0));
    b.send(make_frame(0x10, 8, 0));
    a.send(make_frame(0x20, 8, 0));
  });
  f.kernel.run_until(milliseconds(10));
  ASSERT_EQ(rx_order.size(), 3u);
  EXPECT_EQ(rx_order, (std::vector<std::uint32_t>{0x10, 0x20, 0x30}));
}

TEST(CanBus, TransmissionIsNonPreemptive) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {.bitrate_bps = 500'000});
  auto& a = bus.attach();
  auto& b = bus.attach();
  std::vector<std::pair<Time, std::uint32_t>> rx;
  b.on_receive([&](const Frame& fr) { rx.emplace_back(f.kernel.now(), fr.id); });
  auto& sink = bus.attach();
  sink.on_receive([&](const Frame&) {});
  f.kernel.schedule_at(0, [&] { a.send(make_frame(0x50, 8, 0)); });
  // Higher-priority frame arrives mid-transmission: must wait.
  f.kernel.schedule_at(microseconds(100), [&] {
    b.send(make_frame(0x01, 8, microseconds(100)));
  });
  std::vector<std::pair<Time, std::uint32_t>> rx_a;
  a.on_receive([&](const Frame& fr) { rx_a.emplace_back(f.kernel.now(), fr.id); });
  f.kernel.run_until(milliseconds(10));
  // 0x50 completes at 270us (frame time includes the interframe space);
  // 0x01 then takes another 270us -> delivered at 540us.
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], (std::pair<Time, std::uint32_t>{microseconds(270), 0x50}));
  ASSERT_EQ(rx_a.size(), 1u);
  EXPECT_EQ(rx_a[0].second, 0x01u);
  EXPECT_EQ(rx_a[0].first, microseconds(270 + 270));
}

TEST(CanBus, SenderDoesNotReceiveOwnFrame) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {});
  auto& a = bus.attach();
  auto& b = bus.attach();
  int a_rx = 0, b_rx = 0;
  a.on_receive([&](const Frame&) { ++a_rx; });
  b.on_receive([&](const Frame&) { ++b_rx; });
  f.kernel.schedule_at(0, [&] { a.send(make_frame(1, 4, 0)); });
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(a_rx, 0);
  EXPECT_EQ(b_rx, 1);
}

TEST(CanBus, FifoAmongEqualIdsFromOneNode) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {});
  auto& a = bus.attach();
  auto& b = bus.attach();
  std::vector<std::string> names;
  b.on_receive([&](const Frame& fr) { names.push_back(fr.name); });
  f.kernel.schedule_at(0, [&] {
    a.send(make_frame(5, 1, 0, "first"));
    a.send(make_frame(5, 1, 0, "second"));
  });
  f.kernel.run_until(milliseconds(5));
  EXPECT_EQ(names, (std::vector<std::string>{"first", "second"}));
}

TEST(CanBus, InvalidConfigRejected) {
  Fixture f;
  EXPECT_THROW(CanBus(f.kernel, f.trace, {.bitrate_bps = 0}),
               std::invalid_argument);
  EXPECT_THROW(CanBus(f.kernel, f.trace, {.bitrate_bps = -1}),
               std::invalid_argument);
  EXPECT_NO_THROW(CanBus(f.kernel, f.trace, {.bitrate_bps = 1}));
}

TEST(CanBus, OversizedPayloadRejected) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {});
  auto& a = bus.attach();
  EXPECT_THROW(a.send(make_frame(1, 9, 0)), std::invalid_argument);
}

TEST(CanBus, UtilizationTracksBusyTime) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {.bitrate_bps = 500'000});
  auto& a = bus.attach();
  bus.attach();
  // One 8-byte frame (270us) every ms for 10ms => ~27% utilization.
  for (int i = 0; i < 10; ++i) {
    f.kernel.schedule_at(milliseconds(i), [&] { a.send(make_frame(1, 8, 0)); });
  }
  f.kernel.run_until(milliseconds(10));
  EXPECT_NEAR(bus.stats().utilization(f.kernel.now()), 0.27, 0.001);
}

TEST(CanBus, QueueingDelayMeasured) {
  Fixture f;
  CanBus bus(f.kernel, f.trace, {.bitrate_bps = 500'000});
  auto& a = bus.attach();
  bus.attach();
  f.kernel.schedule_at(0, [&] {
    a.send(make_frame(1, 8, 0));
    a.send(make_frame(2, 8, 0));  // waits one 270us frame
  });
  f.kernel.run_until(milliseconds(5));
  EXPECT_DOUBLE_EQ(bus.stats().queueing_delay().max(), 270.0);  // us
}

}  // namespace
