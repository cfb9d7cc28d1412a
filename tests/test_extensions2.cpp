// Tests for the second extension wave: signal-to-frame packing, the DCM
// diagnostic services, and the LIN bus.
#include <gtest/gtest.h>

#include "analysis/frame_packing.hpp"
#include "bsw/dcm.hpp"
#include "bsw/dem.hpp"
#include "lin/lin_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"

namespace {

using namespace orte;
using sim::Kernel;
using sim::Trace;
using sim::microseconds;
using sim::milliseconds;
using orte::test::records_of;

// --- Frame packing ----------------------------------------------------------------

TEST(FramePacking, PacksWithinCapacityAndPeriodGroups) {
  std::vector<analysis::PackSignal> sigs;
  for (int i = 0; i < 10; ++i) {
    sigs.push_back({"s10_" + std::to_string(i), 16, milliseconds(10)});
  }
  for (int i = 0; i < 4; ++i) {
    sigs.push_back({"s100_" + std::to_string(i), 8, milliseconds(100)});
  }
  const auto packed = analysis::pack_signals(sigs, 64, 500'000);
  // 10 x 16 bits at 10ms -> 160 bits -> 3 frames; 4 x 8 at 100ms -> 1 frame.
  EXPECT_EQ(packed.frames.size(), 4u);
  for (const auto& f : packed.frames) {
    EXPECT_LE(f.used_bits, 64u);
    // All signals in one frame share the period.
    EXPECT_TRUE(f.period == milliseconds(10) || f.period == milliseconds(100));
  }
}

TEST(FramePacking, BeatsNaivePacking) {
  std::vector<analysis::PackSignal> sigs;
  for (int i = 0; i < 20; ++i) {
    sigs.push_back({"s" + std::to_string(i), 8, milliseconds(10)});
  }
  const auto packed = analysis::pack_signals(sigs, 64, 500'000);
  const auto naive = analysis::pack_naive(sigs, 500'000);
  EXPECT_EQ(packed.frames.size(), 3u);   // 160 bits / 64
  EXPECT_EQ(naive.frames.size(), 20u);
  EXPECT_LT(packed.can_utilization, naive.can_utilization / 3);
}

TEST(FramePacking, OffsetsAreDisjoint) {
  std::vector<analysis::PackSignal> sigs{
      {"a", 12, milliseconds(10)}, {"b", 20, milliseconds(10)},
      {"c", 32, milliseconds(10)}, {"d", 1, milliseconds(10)}};
  const auto packed = analysis::pack_signals(sigs, 64, 500'000);
  ASSERT_EQ(packed.frames.size(), 2u);  // 65 bits total
  for (const auto& f : packed.frames) {
    for (std::size_t i = 0; i + 1 < f.offsets.size(); ++i) {
      EXPECT_LT(f.offsets[i], f.offsets[i + 1]);
    }
  }
}

TEST(FramePacking, RejectsInvalidSignals) {
  EXPECT_THROW(
      analysis::pack_signals({{"too_big", 65, milliseconds(10)}}, 64, 500'000),
      std::invalid_argument);
  EXPECT_THROW(analysis::pack_signals({{"no_period", 8, 0}}, 64, 500'000),
               std::invalid_argument);
}

// --- DCM ----------------------------------------------------------------------------

struct DcmFixture {
  Kernel kernel;
  Trace trace;
  bsw::Dem dem{kernel, trace};
  bsw::Dcm dcm{kernel, trace, dem};

  DcmFixture() {
    dem.add_event({.name = "sensor_open", .debounce_threshold = 1,
                   .dtc_code = 0x123456});
    dem.add_event({.name = "bus_off", .debounce_threshold = 1,
                   .dtc_code = 0xABCDEF});
  }
};

TEST(Dcm, SessionControl) {
  DcmFixture f;
  EXPECT_EQ(f.dcm.handle({0x10, 0x03}),
            (std::vector<std::uint8_t>{0x50, 0x03}));
  EXPECT_EQ(f.dcm.session(), bsw::Dcm::Session::kExtended);
  EXPECT_EQ(f.dcm.handle({0x10, 0x05}),
            (std::vector<std::uint8_t>{0x7F, 0x10, 0x12}));
}

TEST(Dcm, ReadDtcsReportsStoredCodes) {
  DcmFixture f;
  f.dem.report("sensor_open", bsw::EventStatus::kFailed);
  const auto resp = f.dcm.handle({0x19, 0x02, 0xFF});
  ASSERT_EQ(resp.size(), 3u + 4u);
  EXPECT_EQ(resp[0], 0x59);
  EXPECT_EQ(resp[3], 0x12);
  EXPECT_EQ(resp[4], 0x34);
  EXPECT_EQ(resp[5], 0x56);
  EXPECT_EQ(resp[6] & 0x08, 0x08);  // confirmedDTC bit
}

TEST(Dcm, ClearRequiresExtendedSession) {
  DcmFixture f;
  f.dem.report("bus_off", bsw::EventStatus::kFailed);
  EXPECT_EQ(f.dcm.handle({0x14, 0xFF, 0xFF, 0xFF}),
            (std::vector<std::uint8_t>{0x7F, 0x14, 0x7F}));
  EXPECT_TRUE(f.dem.dtc("bus_off").has_value());
  f.dcm.handle({0x10, 0x03});
  EXPECT_EQ(f.dcm.handle({0x14, 0xFF, 0xFF, 0xFF}),
            (std::vector<std::uint8_t>{0x54}));
  EXPECT_FALSE(f.dem.dtc("bus_off").has_value());
  EXPECT_TRUE(f.dem.stored_dtcs().empty());
}

TEST(Dcm, ReadDataByIdentifier) {
  DcmFixture f;
  f.dcm.add_did(0xF190, [] {  // VIN
    return std::vector<std::uint8_t>{'O', 'R', 'T', 'E'};
  });
  const auto resp = f.dcm.handle({0x22, 0xF1, 0x90});
  EXPECT_EQ(resp, (std::vector<std::uint8_t>{0x62, 0xF1, 0x90, 'O', 'R', 'T',
                                             'E'}));
  EXPECT_EQ(f.dcm.handle({0x22, 0x00, 0x01}),
            (std::vector<std::uint8_t>{0x7F, 0x22, 0x31}));
}

TEST(Dcm, TesterPresentAndUnknownService) {
  DcmFixture f;
  EXPECT_EQ(f.dcm.handle({0x3E, 0x00}),
            (std::vector<std::uint8_t>{0x7E, 0x00}));
  EXPECT_EQ(f.dcm.handle({0x99}),
            (std::vector<std::uint8_t>{0x7F, 0x99, 0x11}));
  EXPECT_EQ(f.dcm.handle({}),
            (std::vector<std::uint8_t>{0x7F, 0x00, 0x13}));
}

// --- LIN ------------------------------------------------------------------------------

struct LinFixture {
  Kernel kernel;
  Trace trace;
  lin::LinBus bus{kernel, trace, {}};
  lin::LinNode& master{bus.attach("master")};
  lin::LinNode& door{bus.attach("door")};
  lin::LinNode& mirror{bus.attach("mirror")};
};

net::Frame lin_frame(std::uint8_t id, std::vector<std::uint8_t> data) {
  net::Frame f;
  f.id = id;
  f.name = "lf" + std::to_string(id);
  f.payload = std::move(data);
  return f;
}

TEST(Lin, ScheduledPollDeliversPublishedResponse) {
  LinFixture f;
  f.bus.set_schedule({{.frame_id = 0x10, .publisher = 1, .bytes = 2},
                      {.frame_id = 0x11, .publisher = 2, .bytes = 2}});
  std::vector<std::pair<std::uint32_t, std::uint8_t>> rx;
  f.master.on_receive([&](const net::Frame& fr) {
    rx.emplace_back(fr.id, fr.payload[0]);
  });
  f.kernel.schedule_at(0, [&] {
    f.door.send(lin_frame(0x10, {0xD0, 0x01}));
    f.mirror.send(lin_frame(0x11, {0x31, 0x02}));
  });
  f.bus.start();
  f.kernel.run_until(f.bus.cycle_time() * 3);
  // State semantics: each slot re-publishes the latched value every cycle.
  ASSERT_GE(rx.size(), 4u);
  EXPECT_EQ(rx[0], (std::pair<std::uint32_t, std::uint8_t>{0x10, 0xD0}));
  EXPECT_EQ(rx[1], (std::pair<std::uint32_t, std::uint8_t>{0x11, 0x31}));
  EXPECT_EQ(f.bus.no_responses(), 0u);
}

TEST(Lin, SlotTimingFollowsSchedule) {
  LinFixture f;
  f.bus.set_schedule({{.frame_id = 0x10, .publisher = 1, .bytes = 2},
                      {.frame_id = 0x11, .publisher = 2, .bytes = 2}});
  std::vector<sim::Time> rx_times;
  f.master.on_receive([&](const net::Frame&) {
    rx_times.push_back(f.kernel.now());
  });
  f.kernel.schedule_at(0, [&] {
    f.door.send(lin_frame(0x10, {1, 2}));
    f.mirror.send(lin_frame(0x11, {3, 4}));
  });
  f.bus.start();
  f.kernel.run_until(f.bus.cycle_time());
  // frame_time(2B) = (34 + 30) bits at 19.2k = 64 * 52083ns.
  ASSERT_GE(rx_times.size(), 2u);
  EXPECT_EQ(rx_times[0], f.bus.frame_time(2));
  const auto slot0 = f.bus.slot_time({.frame_id = 0x10, .bytes = 2});
  EXPECT_EQ(rx_times[1], slot0 + f.bus.frame_time(2));
}

TEST(Lin, CrashedSlaveYieldsNoResponseSlots) {
  LinFixture f;
  f.bus.set_schedule({{.frame_id = 0x10, .publisher = 1, .bytes = 2}});
  f.kernel.schedule_at(0, [&] { f.door.send(lin_frame(0x10, {1, 2})); });
  f.door.crash_at(f.bus.cycle_time() * 5);
  f.bus.start();
  f.kernel.run_until(f.bus.cycle_time() * 10);
  EXPECT_GE(f.bus.no_responses(), 4u);
  EXPECT_GT(records_of(f.trace, "lin.no_response", "door"), 0u);
}

TEST(Lin, ConfigurationErrorsRejected) {
  LinFixture f;
  EXPECT_THROW(f.door.send(lin_frame(0x70, {1})), std::invalid_argument);
  EXPECT_THROW(f.door.send(lin_frame(0x10, {})), std::invalid_argument);
  f.bus.set_schedule({{.frame_id = 0x10, .publisher = 1, .bytes = 2}});
  // Publishing an id owned by another node:
  EXPECT_THROW(f.mirror.send(lin_frame(0x10, {1, 2})), std::logic_error);
  EXPECT_THROW(f.bus.set_schedule({{.frame_id = 0x90}}),
               std::invalid_argument);
  EXPECT_THROW(lin::LinBus(f.kernel, f.trace, {.bitrate_bps = 0}),
               std::invalid_argument);
}

}  // namespace
