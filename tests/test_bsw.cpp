// Unit tests: basic software — COM packing/transmission, mode management,
// DEM, watchdog alive supervision.
#include <gtest/gtest.h>

#include "bsw/com.hpp"
#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "bsw/watchdog.hpp"
#include "can/can_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"

namespace {

using namespace orte::bsw;
using orte::sim::Kernel;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;
using orte::test::records_of;

struct Fixture {
  Kernel kernel;
  Trace trace;
};

// --- Signal packing ----------------------------------------------------------

TEST(ComPacking, RoundTripAlignedAndUnaligned) {
  std::vector<std::uint8_t> payload(8, 0);
  pack_signal(payload, 0, 8, 0xAB);
  pack_signal(payload, 8, 16, 0x1234);
  pack_signal(payload, 27, 5, 0x15);
  pack_signal(payload, 40, 24, 0xABCDEF);
  EXPECT_EQ(unpack_signal(payload, 0, 8), 0xABu);
  EXPECT_EQ(unpack_signal(payload, 8, 16), 0x1234u);
  EXPECT_EQ(unpack_signal(payload, 27, 5), 0x15u);
  EXPECT_EQ(unpack_signal(payload, 40, 24), 0xABCDEFu);
}

TEST(ComPacking, OverwriteClearsOldBits) {
  std::vector<std::uint8_t> payload(2, 0);
  pack_signal(payload, 3, 6, 0x3F);
  pack_signal(payload, 3, 6, 0x00);
  EXPECT_EQ(unpack_signal(payload, 3, 6), 0u);
  EXPECT_EQ(payload[0], 0u);
  EXPECT_EQ(payload[1], 0u);
}

TEST(ComPacking, SixtyFourBitSignal) {
  std::vector<std::uint8_t> payload(8, 0);
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  pack_signal(payload, 0, 64, v);
  EXPECT_EQ(unpack_signal(payload, 0, 64), v);
}

TEST(ComPacking, OutOfRangeThrows) {
  std::vector<std::uint8_t> payload(2, 0);
  EXPECT_THROW(pack_signal(payload, 12, 8, 1), std::invalid_argument);
  EXPECT_THROW(pack_signal(payload, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(unpack_signal(payload, 0, 65), std::invalid_argument);
}

// --- COM over CAN ------------------------------------------------------------

struct ComFixture : Fixture {
  orte::can::CanBus bus{kernel, trace, {}};
  orte::can::CanController& tx_ctrl{bus.attach()};
  orte::can::CanController& rx_ctrl{bus.attach()};
  Com tx{kernel, trace};
  Com rx{kernel, trace};
};

TEST(Com, DirectTransmissionOnTriggeredSignal) {
  ComFixture f;
  f.tx.add_tx_ipdu({.name = "pdu", .frame_id = 0x10, .length_bytes = 8},
                   f.tx_ctrl);
  f.tx.add_signal(
      {.name = "speed", .ipdu = "pdu", .bit_offset = 0, .bit_length = 16});
  f.rx.add_rx_ipdu({.name = "pdu", .frame_id = 0x10, .length_bytes = 8},
                   f.rx_ctrl);
  f.rx.add_signal({.name = "speed", .ipdu = "pdu", .bit_offset = 0,
                   .bit_length = 16});
  std::vector<std::uint64_t> seen;
  f.rx.on_signal("speed", [&](std::uint64_t v) { seen.push_back(v); });
  f.kernel.schedule_at(microseconds(10), [&] { f.tx.send_signal("speed", 88); });
  f.kernel.run_until(milliseconds(5));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 88u);
  EXPECT_EQ(f.rx.pdus_received(), 1u);
}

TEST(Com, ReceptionNotifiesSignalsInNameOrder) {
  ComFixture f;
  f.tx.add_tx_ipdu({.name = "pdu", .frame_id = 0x16, .length_bytes = 3},
                   f.tx_ctrl);
  f.tx.add_signal(
      {.name = "all", .ipdu = "pdu", .bit_offset = 0, .bit_length = 24});
  f.rx.add_rx_ipdu({.name = "pdu", .frame_id = 0x16, .length_bytes = 3},
                   f.rx_ctrl);
  // Added as c, a, b; byte i of the PDU carries signal 'a' + i.
  std::string order;
  for (const std::string name : {"c", "a", "b"}) {
    const auto offset = static_cast<std::size_t>(name[0] - 'a') * 8;
    f.rx.add_signal(
        {.name = name, .ipdu = "pdu", .bit_offset = offset, .bit_length = 8});
    f.rx.on_signal(name, [&order, name](std::uint64_t v) {
      order += name + std::to_string(v);
    });
  }
  f.kernel.schedule_at(microseconds(10),
                       [&] { f.tx.send_signal("all", 0x030201); });
  f.kernel.schedule_at(milliseconds(1),
                       [&] { f.tx.send_signal("all", 0x060504); });
  f.kernel.run_until(milliseconds(5));
  EXPECT_EQ(order, "a1b2c3a4b5c6");
}

TEST(Com, ConfigErrorsThrow) {
  ComFixture f;
  f.tx.add_tx_ipdu({.name = "p"}, f.tx_ctrl);
  EXPECT_THROW(f.tx.add_tx_ipdu({.name = "p"}, f.tx_ctrl),
               std::invalid_argument);
  f.rx.add_rx_ipdu({.name = "p"}, f.rx_ctrl);
  EXPECT_THROW(f.rx.add_rx_ipdu({.name = "p"}, f.rx_ctrl),
               std::invalid_argument);
  EXPECT_THROW(f.tx.add_signal({.name = "s", .ipdu = "nope"}),
               std::invalid_argument);
  f.tx.add_signal({.name = "s", .ipdu = "p"});
  EXPECT_THROW(f.tx.add_signal({.name = "s", .ipdu = "p"}),
               std::invalid_argument);
  EXPECT_THROW(f.tx.send_signal("ghost", 1), std::invalid_argument);
}

// --- Mode management ----------------------------------------------------------

TEST(ModeMachine, DeclaredTransitionsOnly) {
  Fixture f;
  ModeMachine m(f.kernel, f.trace, "EcuMode", "STARTUP");
  m.add_mode("RUN");
  m.add_mode("LIMP_HOME");
  m.add_transition("STARTUP", "RUN");
  m.add_transition("RUN", "LIMP_HOME");
  EXPECT_TRUE(m.in("STARTUP"));
  EXPECT_FALSE(m.request("LIMP_HOME"));  // not declared from STARTUP
  EXPECT_TRUE(m.in("STARTUP"));
  EXPECT_TRUE(m.request("RUN"));
  EXPECT_TRUE(m.request("LIMP_HOME"));
  EXPECT_EQ(m.transitions(), 2u);
  EXPECT_EQ(m.rejected(), 1u);
}

TEST(ModeMachine, ListenersNotified) {
  Fixture f;
  ModeMachine m(f.kernel, f.trace, "M", "A");
  m.add_mode("B");
  m.add_transition("A", "B");
  std::string got;
  m.on_transition([&](const std::string& from, const std::string& to) {
    got = from + ">" + to;
  });
  m.request("B");
  EXPECT_EQ(got, "A>B");
}

TEST(ModeMachine, SelfRequestIsNoop) {
  Fixture f;
  ModeMachine m(f.kernel, f.trace, "M", "A");
  EXPECT_TRUE(m.request("A"));
  EXPECT_EQ(m.transitions(), 0u);
}

TEST(ModeMachine, SelfRequestFiresNoCallbacks) {
  // Re-requesting the current mode is an accepted no-op: listeners must not
  // see a phantom A->A transition (a callback-wired shutdown/startup action
  // would otherwise run twice).
  Fixture f;
  ModeMachine m(f.kernel, f.trace, "M", "A");
  m.add_mode("B");
  m.add_transition("A", "B");
  m.add_transition("B", "B");  // even a declared self-loop stays silent
  int notified = 0;
  m.on_transition(
      [&](const std::string&, const std::string&) { ++notified; });
  EXPECT_TRUE(m.request("A"));
  EXPECT_EQ(notified, 0);
  EXPECT_TRUE(m.request("B"));
  EXPECT_EQ(notified, 1);
  EXPECT_TRUE(m.request("B"));  // self-request in the new mode: still silent
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(m.transitions(), 1u);
}

TEST(ModeMachine, UndeclaredModeInTransitionThrows) {
  Fixture f;
  ModeMachine m(f.kernel, f.trace, "M", "A");
  EXPECT_THROW(m.add_transition("A", "GHOST"), std::invalid_argument);
}

// --- DEM ------------------------------------------------------------------------

TEST(Dem, DebounceBeforeLatch) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "sensor_open", .debounce_threshold = 3});
  dem.report("sensor_open", EventStatus::kFailed);
  dem.report("sensor_open", EventStatus::kFailed);
  EXPECT_FALSE(dem.dtc("sensor_open").has_value());
  dem.report("sensor_open", EventStatus::kFailed);
  ASSERT_TRUE(dem.dtc("sensor_open").has_value());
  EXPECT_TRUE(dem.dtc("sensor_open")->confirmed);
  EXPECT_EQ(dem.dtc("sensor_open")->occurrence_count, 1u);
}

TEST(Dem, PassedReportsHeal) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 2});
  dem.report("e", EventStatus::kFailed);
  dem.report("e", EventStatus::kFailed);
  ASSERT_TRUE(dem.dtc("e").has_value());
  EXPECT_TRUE(dem.dtc("e")->confirmed);
  dem.report("e", EventStatus::kPassed);
  dem.report("e", EventStatus::kPassed);
  // Healed but the DTC is still stored (unconfirmed).
  ASSERT_TRUE(dem.dtc("e").has_value());
  EXPECT_FALSE(dem.dtc("e")->confirmed);
}

TEST(Dem, AgingClearsHealedDtc) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 1});
  dem.report("e", EventStatus::kFailed);
  dem.report("e", EventStatus::kPassed);
  for (std::uint32_t cycle = 1; cycle < kDtcAgingCycles; ++cycle) {
    dem.operation_cycle_end();
    EXPECT_TRUE(dem.dtc("e").has_value()) << "cycle " << cycle;
  }
  dem.operation_cycle_end();
  EXPECT_FALSE(dem.dtc("e").has_value());
}

TEST(Dem, ReoccurrenceIncrementsCount) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 1});
  dem.report("e", EventStatus::kFailed);
  dem.report("e", EventStatus::kPassed);
  dem.report("e", EventStatus::kFailed);
  EXPECT_EQ(dem.dtc("e")->occurrence_count, 2u);
}

TEST(Dem, ConfirmedDtcKeepsFreshnessMoving) {
  // Regression: while an event stayed failed, further failed reports used
  // to leave last_occurrence frozen at the latch time — a tester reading
  // the DTC could not tell an old latched fault from one still firing.
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 1});
  dem.report("e", EventStatus::kFailed);
  ASSERT_TRUE(dem.dtc("e").has_value());
  EXPECT_EQ(dem.dtc("e")->last_occurrence, 0);

  f.kernel.run_until(milliseconds(10));
  dem.report("e", EventStatus::kFailed);
  EXPECT_EQ(dem.dtc("e")->last_occurrence, milliseconds(10));
  // Freshness only — the occurrence count still counts latches, and the
  // first-occurrence timestamp is immutable.
  EXPECT_EQ(dem.dtc("e")->occurrence_count, 1u);
  EXPECT_EQ(dem.dtc("e")->first_occurrence, 0);
}

TEST(Dem, AgedOutCallbackDeliversFinalDtcState) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 1});
  std::vector<Dtc> aged;
  dem.on_aged_out([&](const Dtc& dtc) { aged.push_back(dtc); });
  dem.report("e", EventStatus::kFailed);
  dem.report("e", EventStatus::kPassed);
  for (std::uint32_t cycle = 1; cycle < kDtcAgingCycles; ++cycle) {
    dem.operation_cycle_end();
    EXPECT_TRUE(aged.empty()) << "cycle " << cycle;
  }
  dem.operation_cycle_end();
  ASSERT_EQ(aged.size(), 1u);
  EXPECT_EQ(aged[0].event, "e");
  EXPECT_EQ(aged[0].aged, kDtcAgingCycles);
  EXPECT_FALSE(aged[0].confirmed);
  EXPECT_FALSE(dem.dtc("e").has_value());  // erased before the callback ran
}

TEST(Dem, CallbackOnStore) {
  Fixture f;
  Dem dem(f.kernel, f.trace);
  dem.add_event({.name = "e", .debounce_threshold = 1});
  int stored = 0;
  dem.on_dtc_stored([&](const Dtc&) { ++stored; });
  dem.report("e", EventStatus::kFailed);
  EXPECT_EQ(stored, 1);
}

// --- Watchdog ----------------------------------------------------------------------

TEST(Watchdog, HealthyEntityPasses) {
  Fixture f;
  WatchdogManager wdg(f.kernel, f.trace, milliseconds(10));
  wdg.supervise({.entity = "ctrl", .min_indications = 1});
  f.kernel.schedule_periodic(0, milliseconds(5), [&] { wdg.checkpoint("ctrl"); });
  wdg.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_EQ(wdg.violations(), 0u);
  EXPECT_EQ(records_of(f.trace, "wdg.violation", "ctrl"), 0u);
}

TEST(Watchdog, SilentEntityTrips) {
  Fixture f;
  WatchdogManager wdg(f.kernel, f.trace, milliseconds(10));
  wdg.supervise({.entity = "ctrl", .min_indications = 1});
  std::string tripped;
  wdg.on_violation([&](const std::string& e, std::uint32_t) { tripped = e; });
  wdg.start();
  f.kernel.run_until(milliseconds(25));
  EXPECT_EQ(wdg.violations(), 1u);
  EXPECT_EQ(tripped, "ctrl");
  EXPECT_EQ(records_of(f.trace, "wdg.violation", "ctrl"), 1u);
}

TEST(Watchdog, ToleranceDelaysTrip) {
  Fixture f;
  WatchdogManager wdg(f.kernel, f.trace, milliseconds(10));
  wdg.supervise({.entity = "ctrl", .min_indications = 1,
                 .failed_cycles_tolerance = 2});
  wdg.start();
  f.kernel.run_until(milliseconds(25));
  EXPECT_EQ(wdg.violations(), 0u);  // 2 failed cycles tolerated
  f.kernel.run_until(milliseconds(35));
  EXPECT_EQ(wdg.violations(), 1u);  // third failed cycle trips
}

TEST(Watchdog, UnknownEntityCheckpointThrows) {
  Fixture f;
  WatchdogManager wdg(f.kernel, f.trace, milliseconds(10));
  EXPECT_THROW(wdg.checkpoint("ghost"), std::invalid_argument);
}

}  // namespace
