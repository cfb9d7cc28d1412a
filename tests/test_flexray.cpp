// Unit tests: FlexRay — cycle structure, static TDMA slots, dynamic
// mini-slotting, state-message semantics.
#include <gtest/gtest.h>

#include <vector>

#include "flexray/flexray_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace {

using namespace orte::flexray;
using orte::net::Frame;
using orte::sim::Kernel;
using orte::sim::Time;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;

Frame make_frame(std::uint32_t id, std::size_t bytes, Time enq = 0) {
  Frame f;
  f.id = id;
  f.name = "f" + std::to_string(id);
  f.payload.assign(bytes, 0x5A);
  f.enqueued_at = enq;
  return f;
}

FlexRayConfig small_config() {
  FlexRayConfig cfg;
  cfg.static_slots = 4;
  cfg.static_payload_bytes = 8;
  cfg.minislots = 20;
  cfg.minislot_len = microseconds(2);
  cfg.network_idle = microseconds(10);
  return cfg;
}

struct Fixture {
  Kernel kernel;
  Trace trace;
};

TEST(FlexRay, CycleLengthMatchesConfig) {
  const auto cfg = small_config();
  // Slot: (8 overhead + 8 payload) * 8 bits * 0.1us + 1us guard = 13.8us.
  EXPECT_EQ(FlexRayBus::slot_length(cfg), 12'800 + 1'000);
  EXPECT_EQ(FlexRayBus::cycle_length(cfg),
            4 * 13'800 + 20 * 2'000 + 10'000);
}

TEST(FlexRay, StaticFrameDeliveredAtSlotEnd) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(2, tx);
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  f.kernel.schedule_at(0, [&] { tx.send(make_frame(2, 8, 0)); });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  // Slot 2 ends at 2 * slot_len into the cycle.
  EXPECT_EQ(deliveries[0], 2 * bus.static_slot_len());
}

TEST(FlexRay, StateMessageSemanticsOverwrite) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  std::vector<std::uint8_t> last;
  rx.on_receive([&](const Frame& fr) { last = fr.payload; });
  f.kernel.schedule_at(0, [&] {
    auto f1 = make_frame(1, 8);
    f1.payload.assign(8, 0x01);
    tx.send(std::move(f1));
    auto f2 = make_frame(1, 8);
    f2.payload.assign(8, 0x02);
    tx.send(std::move(f2));  // overwrites before the slot: only 0x02 flies
  });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(last.size(), 8u);
  EXPECT_EQ(last[0], 0x02);
  EXPECT_EQ(bus.stats().frames_delivered(), 1u);
}

TEST(FlexRay, MissedSlotWaitsOneCycle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  bus.start();
  // Write just after slot 1 started: transmitted in the *next* cycle.
  f.kernel.schedule_at(microseconds(1), [&] { tx.send(make_frame(1, 8)); });
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], bus.cycle_len() + bus.static_slot_len());
}

TEST(FlexRay, SlotOwnershipEnforced) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& a = bus.attach();
  auto& b = bus.attach();
  bus.assign_static_slot(1, a);
  EXPECT_THROW(bus.assign_static_slot(1, b), std::invalid_argument);
  EXPECT_THROW(bus.assign_static_slot(9, a), std::invalid_argument);
  EXPECT_THROW(b.send(make_frame(1, 8)), std::logic_error);
}

TEST(FlexRay, DynamicSegmentPriorityOrder) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<std::uint32_t> order;
  rx.on_receive([&](const Frame& fr) { order.push_back(fr.id); });
  // Dynamic frame ids are > static_slots (4).
  f.kernel.schedule_at(0, [&] {
    tx.send(make_frame(9, 4));
    tx.send(make_frame(5, 4));
    tx.send(make_frame(7, 4));
  });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 7, 9}));
}

TEST(FlexRay, DynamicFrameTooBigForRemainingMinislotsDefers) {
  Fixture f;
  auto cfg = small_config();
  cfg.minislots = 10;  // 20us dynamic segment
  FlexRayBus bus(f.kernel, f.trace, cfg);
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  f.kernel.schedule_at(0, [&] {
    // (8+8)*8 bits at 10Mbit = 12.8us -> 7 minislots each; two frames do not
    // both fit into 10 minislots.
    tx.send(make_frame(5, 8));
    tx.send(make_frame(6, 8));
  });
  bus.start();
  f.kernel.run_until(milliseconds(2));
  ASSERT_EQ(rx_log.size(), 2u);
  EXPECT_EQ(rx_log[0].second, 5u);
  EXPECT_EQ(rx_log[1].second, 6u);
  // Second frame went out one cycle later.
  EXPECT_GT(rx_log[1].first - rx_log[0].first,
            bus.cycle_len() - microseconds(20));
  EXPECT_EQ(bus.dynamic_deferrals(), 1u);
}

TEST(FlexRay, CyclesCountAndRepeat) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  int rx_count = 0;
  rx.on_receive([&](const Frame&) { ++rx_count; });
  // Writer publishes fresh state every cycle.
  f.kernel.schedule_periodic(0, bus.cycle_len(),
                             [&] { tx.send(make_frame(1, 8)); });
  bus.start();
  f.kernel.run_until(10 * bus.cycle_len());
  EXPECT_GE(bus.cycles(), 10u);
  // A write at cycle k (after slot 1 already ran) is delivered in cycle k+1;
  // the write at cycle 9 delivers past the horizon.
  EXPECT_EQ(rx_count, 9);
}

TEST(FlexRay, ZeroFrameIdRejected) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  EXPECT_THROW(tx.send(make_frame(0, 4)), std::invalid_argument);
}

TEST(FlexRay, InvalidConfigRejected) {
  Fixture f;
  FlexRayConfig no_bitrate = small_config();
  no_bitrate.bitrate_bps = 0;
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, no_bitrate),
               std::invalid_argument);
  FlexRayConfig no_slots = small_config();
  no_slots.static_slots = 0;
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, no_slots),
               std::invalid_argument);
  FlexRayConfig negative_minislot = small_config();
  negative_minislot.minislot_len = -microseconds(1);
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, negative_minislot),
               std::invalid_argument);
  // The dynamic segment counts minislots by dividing by their length.
  FlexRayConfig zero_minislot = small_config();
  zero_minislot.minislot_len = 0;
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, zero_minislot),
               std::invalid_argument);
  FlexRayConfig negative_idle = small_config();
  negative_idle.network_idle = -milliseconds(1);
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, negative_idle),
               std::invalid_argument);
}

TEST(FlexRay, OversizedStaticPayloadRejected) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  bus.assign_static_slot(1, tx);
  EXPECT_THROW(tx.send(make_frame(1, 16)), std::invalid_argument);
}

}  // namespace
