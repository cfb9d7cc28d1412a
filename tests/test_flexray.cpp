// Unit tests: FlexRay — cycle structure, static TDMA slots, dynamic
// mini-slotting, state-message semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "flexray/flexray_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace {

using namespace orte::flexray;
using orte::net::Frame;
using orte::sim::Duration;
using orte::sim::Kernel;
using orte::sim::Rng;
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

TEST(FlexRay, WriteAheadOfArmedSlotGoesOutThisCycle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(2, tx);
  bus.assign_static_slot(4, tx);
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  const Duration slot = bus.static_slot_len();
  tx.send(make_frame(4, 8));  // before the first cycle starts
  bus.start();
  // During slot 1: slot 2 is still ahead, ahead of the written slot 4.
  f.kernel.schedule_at(slot / 2, [&] { tx.send(make_frame(2, 8)); });
  f.kernel.run_until(bus.cycle_len() - 1);
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {2 * slot, 2}, {4 * slot, 4}}));
}

TEST(FlexRay, WriteAtSlotStartInstantWaitsOneCycle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(3, tx);
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  bus.start();
  // Slot 3 starts at 2 * slot_len. The bus opens the slot before any
  // default-order event at that instant, so this write misses it.
  f.kernel.schedule_at(2 * bus.static_slot_len(),
                       [&] { tx.send(make_frame(3, 8)); });
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], bus.cycle_len() + 3 * bus.static_slot_len());
}

// A frame written by a delivery (a gateway forwarding what it received) is
// seen by the slot, or the dynamic segment, that starts at that instant.
TEST(FlexRay, FrameWrittenByADeliveryGoesOutInTheSlotStartingThen) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& source = bus.attach();
  auto& gateway = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, source);
  bus.assign_static_slot(2, gateway);
  bus.assign_static_slot(4, source);
  gateway.on_receive([&](const Frame& fr) {
    if (fr.id == 1) gateway.send(make_frame(2, 8, f.kernel.now()));
    if (fr.id == 4) gateway.send(make_frame(5, 8, f.kernel.now()));
  });
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  const Duration slot = bus.static_slot_len();
  source.send(make_frame(1, 8));
  source.send(make_frame(4, 8));
  bus.start();
  f.kernel.run_until(bus.cycle_len() - 1);
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {slot, 1},
                        {2 * slot, 2},
                        {4 * slot, 4},
                        {4 * slot + microseconds(14), 5}}));
}

// The same for a dynamic frame delivered at the instant the next cycle
// begins (no network idle time, and the frame fills the segment): a slot-1
// frame written by that delivery goes out in the cycle beginning then.
TEST(FlexRay, FrameWrittenByADynamicDeliveryAtACycleStartGoesOutThen) {
  Fixture f;
  auto cfg = small_config();
  cfg.minislots = 7;  // one 8-byte dynamic frame fills the segment
  cfg.network_idle = 0;
  FlexRayBus bus(f.kernel, f.trace, cfg);
  auto& source = bus.attach();
  auto& gateway = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, gateway);
  gateway.on_receive([&](const Frame& fr) {
    if (fr.id == 5) gateway.send(make_frame(1, 8, f.kernel.now()));
  });
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  const Duration cycle = bus.cycle_len();
  source.send(make_frame(5, 8));
  bus.start();
  f.kernel.run_until(3 * cycle);
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {cycle, 5}, {cycle + bus.static_slot_len(), 1}}));
}

TEST(FlexRay, DynamicFrameDuringIdleStaticSegment) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  const Duration slot = bus.static_slot_len();
  const Duration cycle = bus.cycle_len();
  const Time segment = 4 * slot;  // the dynamic segment's offset in a cycle
  // (8 + 8) bytes * 8 bits at 10 Mbit/s = 12.8 us -> 7 minislots of 2 us.
  const Duration tx_time = microseconds(14);
  bus.start();
  // Mid static segment, no static traffic: sent in this cycle's segment.
  f.kernel.schedule_at(slot + slot / 2, [&] { tx.send(make_frame(5, 8)); });
  // At the segment's start instant: the segment has begun, wait one cycle.
  f.kernel.schedule_at(cycle + segment, [&] { tx.send(make_frame(6, 8)); });
  f.kernel.run_until(3 * cycle);
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {segment + tx_time, 5},
                        {2 * cycle + segment + tx_time, 6}}));
}

/// One frame write of the oracle test: its instant, its place in the
/// generated list (also its payload value), frame id and sending node.
struct Write {
  Time at;
  std::size_t index;
  std::uint32_t id;
  int node;
};

/// One frame seen by the listening node.
struct Delivery {
  Time at;
  std::uint32_t id;
  std::uint32_t value;
  bool operator==(const Delivery&) const = default;
  friend void PrintTo(const Delivery& d, std::ostream* os) {
    *os << "{t=" << d.at << " id=" << d.id << " value=" << d.value << "}";
  }
};

// Random static and dynamic writes against a TDMA oracle computed from the
// write log alone: a static write goes out in the first start of its slot
// strictly after it, carrying the last value written before that start;
// dynamic frames go out in the first segment that starts strictly after
// them, lowest id first (earlier write first among equal ids), as many as
// fit. Dense input writes anywhere in 48 busy cycles, a share of the writes
// at the exact instant a slot or the dynamic segment starts. Sparse input
// leaves 1-50 idle cycles between groups of writes, and snaps two thirds of
// them to a cycle or a segment start, so the bus sleeps across long gaps
// and wakes at the instants its tie rules decide.
void expect_tdma_oracle(std::uint64_t seed, bool sparse) {
  constexpr std::uint32_t kSlots = 4;
  constexpr std::size_t kStaticWrites = 150;
  constexpr std::size_t kDynamicWrites = 60;
  // Dynamic frames are 8 bytes: 7 minislots (14 us) each, so two of them
  // fit into the 40 us segment of small_config().
  constexpr std::size_t kDynamicPerCycle = 2;
  const Duration dyn_tx = microseconds(14);

  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  std::vector<FlexRayController*> nodes{&bus.attach(), &bus.attach()};
  auto& rx = bus.attach();
  for (std::uint32_t s = 1; s <= kSlots; ++s) {
    bus.assign_static_slot(s, *nodes[(s - 1) % 2]);
  }
  const Duration slot = bus.static_slot_len();
  const Duration cycle = bus.cycle_len();
  // Start of static slot k (1-based; k = kSlots + 1 is the dynamic
  // segment) in cycle c.
  const auto start_of = [&](std::int64_t c, std::uint32_t k) {
    return c * cycle + static_cast<Duration>(k - 1) * slot;
  };
  // Cycle of the first start of slot k strictly after t.
  const auto first_cycle_after = [&](Time t, std::uint32_t k) {
    const Time offset = t - start_of(0, k);
    return offset < 0 ? std::int64_t{0} : offset / cycle + 1;
  };

  Rng rng(seed);
  std::vector<Write> writes;
  std::int64_t write_cycle = 0;  // sparse input: the cycle of the last write
  for (std::size_t i = 0; i < kStaticWrites + kDynamicWrites; ++i) {
    const bool dynamic = sparse ? rng.chance(0.3) : i >= kStaticWrites;
    const auto id = static_cast<std::uint32_t>(
        dynamic ? rng.uniform(kSlots + 1, kSlots + 4)
                : rng.uniform(1, kSlots));
    Time at = 0;
    if (sparse) {  // a third of the writes share their predecessor's cycle
      if (!rng.chance(0.3)) write_cycle += rng.uniform(1, 50);
      switch (rng.uniform(0, 2)) {
        case 0:
          at = start_of(write_cycle, 1);
          break;
        case 1:
          at = start_of(write_cycle, kSlots + 1);
          break;
        default:
          at = write_cycle * cycle + rng.uniform(0, cycle - 1);
          break;
      }
    } else {
      constexpr std::int64_t kWriteCycles = 48;
      at = rng.uniform(0, kWriteCycles * cycle - 1);
      if (rng.chance(0.3)) {  // snap to a slot or segment start
        at = start_of(rng.uniform(0, kWriteCycles - 1),
                      dynamic ? kSlots + 1 : id);
      }
    }
    const int node = dynamic ? static_cast<int>(rng.index(2))
                             : static_cast<int>((id - 1) % 2);
    writes.push_back({at, i, id, node});
  }
  // Leaves time to deliver every write.
  const std::int64_t cycles = sparse ? write_cycle + 3 : 50;
  for (const Write& w : writes) {
    f.kernel.schedule_at(w.at, [&nodes, w] {
      Frame frame = make_frame(w.id, 8, w.at);
      std::vector<std::uint8_t> bytes(8, 0);
      bytes[0] = static_cast<std::uint8_t>(w.index);
      bytes[1] = static_cast<std::uint8_t>(w.index >> 8);
      frame.payload = std::move(bytes);
      nodes[static_cast<std::size_t>(w.node)]->send(std::move(frame));
    });
  }
  std::vector<Delivery> got_static;
  std::vector<Delivery> got_dynamic;
  rx.on_receive([&](const Frame& fr) {
    const auto& b = fr.payload.bytes();
    const Delivery d{f.kernel.now(), fr.id,
                     static_cast<std::uint32_t>(b[0] | (b[1] << 8))};
    (fr.id <= kSlots ? got_static : got_dynamic).push_back(d);
  });
  bus.start();
  f.kernel.run_until(cycles * cycle);

  // Writes in execution order: by instant, then by scheduling order.
  std::sort(writes.begin(), writes.end(), [](const Write& a, const Write& b) {
    return std::tie(a.at, a.index) < std::tie(b.at, b.index);
  });
  // Static: (slot, cycle) -> the last write before that slot start.
  std::map<std::pair<std::uint32_t, std::int64_t>, std::size_t> last;
  // Dynamic: the writes each cycle's segment first sees.
  std::vector<std::vector<Write>> arrivals(static_cast<std::size_t>(cycles));
  for (const Write& w : writes) {
    if (w.id <= kSlots) {
      last[{w.id, first_cycle_after(w.at, w.id)}] = w.index;
    } else {
      arrivals[static_cast<std::size_t>(first_cycle_after(w.at, kSlots + 1))]
          .push_back(w);
    }
  }
  std::vector<Delivery> want_static;
  for (const auto& [key, index] : last) {
    want_static.push_back({start_of(key.second, key.first) + slot, key.first,
                           static_cast<std::uint32_t>(index)});
  }
  std::sort(want_static.begin(), want_static.end(),
            [](const Delivery& a, const Delivery& b) { return a.at < b.at; });
  std::vector<Delivery> want_dynamic;
  std::vector<Write> pending;
  for (std::int64_t c = 0; c < cycles; ++c) {
    for (const Write& w : arrivals[static_cast<std::size_t>(c)]) {
      pending.push_back(w);
    }
    std::sort(pending.begin(), pending.end(),
              [](const Write& a, const Write& b) {
                return std::tie(a.id, a.at, a.index) <
                       std::tie(b.id, b.at, b.index);
              });
    const std::size_t sent = std::min(pending.size(), kDynamicPerCycle);
    for (std::size_t j = 0; j < sent; ++j) {
      want_dynamic.push_back(
          {start_of(c, kSlots + 1) + static_cast<Duration>(j + 1) * dyn_tx,
           pending[j].id, static_cast<std::uint32_t>(pending[j].index)});
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(sent));
  }
  ASSERT_TRUE(pending.empty()) << "oracle left frames past the horizon";
  EXPECT_EQ(got_static, want_static);
  EXPECT_EQ(got_dynamic, want_dynamic);
  EXPECT_EQ(bus.cycles(), static_cast<std::uint64_t>(cycles) + 1);
}

TEST(FlexRay, RandomWritesMatchTdmaOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("dense, seed " + std::to_string(seed));
    expect_tdma_oracle(seed, false);
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("sparse, seed " + std::to_string(seed));
    expect_tdma_oracle(seed, true);
  }
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

// cycles() counts the cycles begun by now(), from wherever the bus started:
// exact in the middle of a long idle stretch, at an instant where a cycle
// begins (that cycle counts) and at a run's horizon.
TEST(FlexRay, CyclesCountedExactlyWhileIdle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  bus.attach();
  const Time origin = microseconds(7);
  const Duration cycle = bus.cycle_len();
  f.kernel.run_until(origin);
  EXPECT_EQ(bus.cycles(), 0u);
  bus.start();
  std::vector<std::uint64_t> seen;
  for (const Time at : {origin + 37 * cycle + cycle / 2, origin + 50 * cycle,
                        origin + 50 * cycle - 1}) {
    f.kernel.schedule_at(at, [&] { seen.push_back(bus.cycles()); });
  }
  f.kernel.run_until(origin + 100 * cycle - 1);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{38, 50, 51}));
  EXPECT_EQ(bus.cycles(), 100u);
  f.kernel.run_until(origin + 100 * cycle);
  EXPECT_EQ(bus.cycles(), 101u);
}

// A static frame written after its slot passed keeps the bus awake until the
// next cycle, however idle the cycles after it are; so does a dynamic frame
// written after the segment opened.
TEST(FlexRay, PassedSlotWriteGoesOutNextCycleAcrossIdleCycles) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  bus.assign_static_slot(2, tx);
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  const Duration slot = bus.static_slot_len();
  const Duration cycle = bus.cycle_len();
  const Time segment = 4 * slot;
  bus.start();
  // Cycle 0: slot 2 is written in the dynamic segment; cycle 30: slot 1
  // during slot 3, and a dynamic frame just after its segment opened.
  f.kernel.schedule_at(segment + microseconds(3),
                       [&] { tx.send(make_frame(2, 8)); });
  f.kernel.schedule_at(30 * cycle + 2 * slot + slot / 2,
                       [&] { tx.send(make_frame(1, 8)); });
  f.kernel.schedule_at(30 * cycle + segment + 1,
                       [&] { tx.send(make_frame(5, 8)); });
  f.kernel.run_until(100 * cycle);
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {cycle + 2 * slot, 2},
                        {31 * cycle + slot, 1},
                        {31 * cycle + segment + microseconds(14), 5}}));
}

// The bus arms a kernel event only where it has work: an idle bus sleeps
// through its cycles at no kernel event at all, and a slot written once per
// cycle adds the write, the slot start and the slot end.
TEST(FlexRay, IdleBusCostsNoKernelEvent) {
  constexpr std::uint64_t kCycles = 100;
  {
    Fixture f;
    FlexRayBus bus(f.kernel, f.trace, FlexRayConfig{});  // 16 static slots
    bus.start();
    f.kernel.run_until(static_cast<Time>(kCycles) * bus.cycle_len() - 1);
    EXPECT_EQ(bus.cycles(), kCycles);
    EXPECT_EQ(f.kernel.events_executed(), 0u);
  }
  {
    Fixture f;
    FlexRayBus bus(f.kernel, f.trace, FlexRayConfig{});
    auto& tx = bus.attach();
    bus.attach();
    bus.assign_static_slot(3, tx);
    f.kernel.schedule_periodic(bus.static_slot_len() / 2, bus.cycle_len(),
                               [&] { tx.send(make_frame(3, 16)); });
    bus.start();
    f.kernel.run_until(static_cast<Time>(kCycles) * bus.cycle_len() - 1);
    EXPECT_EQ(bus.cycles(), kCycles);
    EXPECT_EQ(bus.stats().frames_delivered(), kCycles);
    EXPECT_EQ(f.kernel.events_executed(), 3 * kCycles);
  }
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
