// Unit tests: TTP — TDMA rounds, membership service, bus guardian, fault
// injection (babbling idiot).
#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"
#include "ttp/ttp_bus.hpp"

namespace {

using namespace orte::ttp;
using orte::net::Frame;
using orte::sim::Kernel;
using orte::sim::Time;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;
using orte::test::records_of;

struct Fixture {
  Kernel kernel;
  Trace trace;
};

TtpConfig config(bool guardian) {
  TtpConfig cfg;
  cfg.slot_len = microseconds(100);
  cfg.bus_guardian = guardian;
  return cfg;
}

TEST(Ttp, RoundLengthIsNodesTimesSlot) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  bus.attach("a");
  bus.attach("b");
  bus.attach("c");
  EXPECT_EQ(bus.round_len(), microseconds(300));
}

TEST(Ttp, DataFrameDeliveredInOwnSlot) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  auto& a = bus.attach("a");
  auto& b = bus.attach("b");
  std::vector<std::pair<Time, std::string>> rx;
  b.on_receive([&](const Frame& fr) { rx.emplace_back(f.kernel.now(), fr.name); });
  f.kernel.schedule_at(0, [&] {
    Frame fr;
    fr.name = "steer";
    fr.payload = {1, 2, 3};
    a.send(std::move(fr));
  });
  bus.start();
  f.kernel.run_until(microseconds(150));
  ASSERT_GE(rx.size(), 1u);
  EXPECT_EQ(rx[0].second, "steer");
  EXPECT_EQ(rx[0].first, microseconds(100));  // end of a's slot (slot 0)
}

TEST(Ttp, HeartbeatsMaintainMembership) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  bus.attach("a");
  bus.attach("b");
  bus.start();
  f.kernel.run_until(milliseconds(10));
  EXPECT_EQ(bus.membership(), (std::vector<bool>{true, true}));
  EXPECT_EQ(bus.membership_losses(), 0u);
}

TEST(Ttp, BabblerWithGuardianIsContained) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  bus.attach("a");
  auto& b = bus.attach("b");
  bus.attach("c");
  b.babble(microseconds(0), milliseconds(5));
  bus.start();
  f.kernel.run_until(milliseconds(5));
  // Guardian blocks every out-of-slot attempt; nobody loses membership.
  EXPECT_EQ(bus.collisions(), 0u);
  EXPECT_EQ(bus.membership_losses(), 0u);
  EXPECT_GT(bus.guardian_blocks(), 0u);
  EXPECT_EQ(bus.membership(), (std::vector<bool>{true, true, true}));
}

TEST(Ttp, BabblerWithoutGuardianDestroysCommunication) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(false));
  bus.attach("a");
  auto& b = bus.attach("b");
  bus.attach("c");
  b.babble(microseconds(0), milliseconds(5));
  bus.start();
  f.kernel.run_until(milliseconds(5));
  // Every slot of a and c collides with the babbler.
  EXPECT_GT(bus.collisions(), 0u);
  EXPECT_EQ(bus.membership()[0], false);
  EXPECT_EQ(bus.membership()[2], false);
  // The babbler's own slot stays clean: it keeps its membership.
  EXPECT_EQ(bus.membership()[1], true);
}

TEST(Ttp, ReintegrationAfterBabbleEnds) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(false));
  bus.attach("a");
  auto& b = bus.attach("b");
  b.babble(microseconds(0), microseconds(600));
  bus.start();
  f.kernel.run_until(milliseconds(3));
  // After the babble window, a transmits cleanly again and is readmitted.
  EXPECT_EQ(bus.membership()[0], true);
  EXPECT_GT(records_of(f.trace, "ttp.membership_gain", "a"), 0u);
}

TEST(Ttp, StartWithoutNodesThrows) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  EXPECT_THROW(bus.start(), std::logic_error);
}

TEST(Ttp, StateMessageOverwriteBeforeSlot) {
  Fixture f;
  TtpBus bus(f.kernel, f.trace, config(true));
  auto& a = bus.attach("a");
  auto& b = bus.attach("b");
  std::vector<std::string> rx;
  b.on_receive([&](const Frame& fr) { rx.push_back(fr.name); });
  f.kernel.schedule_at(0, [&] {
    Frame f1;
    f1.name = "old";
    a.send(std::move(f1));
    Frame f2;
    f2.name = "new";
    a.send(std::move(f2));
  });
  bus.start();
  f.kernel.run_until(microseconds(150));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], "new");
}

}  // namespace
