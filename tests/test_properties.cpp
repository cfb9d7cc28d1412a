// Property-based / parameterized suites (gtest TEST_P):
//  * analysis soundness: simulated worst response <= analysed bound, for
//    random task sets and CAN message sets across utilization bands,
//  * medium exclusivity: TDMA protocols never overlap transmissions, with
//    and without injected faults (guardian on),
//  * timing isolation: victims never miss under budget enforcement for any
//    overrun factor,
//  * contract algebra: dominance is reflexive and transitive; compatibility
//    is monotone under guarantee tightening,
//  * COM packing round-trips over randomized non-overlapping layouts,
//  * TT synthesis correctness: tables simulate without misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/can_analysis.hpp"
#include "analysis/flexray_analysis.hpp"
#include "analysis/holistic.hpp"
#include "analysis/rta.hpp"
#include "analysis/tt_schedule.hpp"
#include "bsw/com.hpp"
#include "can/can_bus.hpp"
#include "contracts/contract.hpp"
#include "flexray/flexray_bus.hpp"
#include "noc/noc.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "ttp/ttp_bus.hpp"
#include "validation/validator.hpp"
#include "vfb/model.hpp"
#include "vfb/system.hpp"

namespace {

using namespace orte;
using sim::Kernel;
using sim::Rng;
using sim::Trace;
using sim::microseconds;
using sim::milliseconds;

// --- RTA soundness ------------------------------------------------------------

struct RtaCase {
  double utilization;
  std::uint64_t seed;
};

class RtaSoundness : public ::testing::TestWithParam<RtaCase> {};

TEST_P(RtaSoundness, SimulatedResponseNeverExceedsBound) {
  const auto [target_u, seed] = GetParam();
  Rng rng(seed);
  const std::size_t n = 3 + rng.index(5);  // 3..7 tasks
  const std::vector<sim::Duration> period_choices{
      milliseconds(1), milliseconds(2), milliseconds(4),  milliseconds(5),
      milliseconds(8), milliseconds(10), milliseconds(20)};
  const auto shares = rng.uunifast(n, target_u);

  std::vector<analysis::AnalysisTask> model;
  for (std::size_t i = 0; i < n; ++i) {
    analysis::AnalysisTask t;
    t.name = "t" + std::to_string(i);
    t.period = period_choices[rng.index(period_choices.size())];
    t.wcet = std::max<sim::Duration>(
        microseconds(1),
        static_cast<sim::Duration>(static_cast<double>(t.period) * shares[i]));
    model.push_back(t);
  }
  analysis::assign_deadline_monotonic(model);

  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  os::Ecu ecu(kernel, trace, "e");
  for (const auto& m : model) {
    ecu.add_task({.name = m.name, .priority = m.priority, .period = m.period})
        .set_body(m.wcet);
  }
  ecu.start();
  kernel.run_until(milliseconds(400));  // >= 2 hyperperiods (lcm <= 40ms)

  const auto result = analysis::analyze(model);
  for (const auto& m : model) {
    const auto* task = ecu.find_task(m.name);
    ASSERT_NE(task, nullptr);
    auto it = result.response.find(m.name);
    if (it == result.response.end()) continue;  // analysis: unschedulable
    EXPECT_LE(task->response_times().max(), sim::to_ms(it->second) + 1e-9)
        << m.name << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UtilizationBands, RtaSoundness,
    ::testing::Values(RtaCase{0.3, 1}, RtaCase{0.3, 2}, RtaCase{0.3, 3},
                      RtaCase{0.5, 4}, RtaCase{0.5, 5}, RtaCase{0.5, 6},
                      RtaCase{0.7, 7}, RtaCase{0.7, 8}, RtaCase{0.7, 9},
                      RtaCase{0.85, 10}, RtaCase{0.85, 11}, RtaCase{0.85, 12},
                      RtaCase{0.95, 13}, RtaCase{0.95, 14}, RtaCase{0.95, 15}));

// --- CAN analysis soundness ------------------------------------------------------

class CanSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanSoundness, SimulatedQueueToDeliveryWithinBound) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::int64_t kBitrate = 500'000;
  const std::size_t n = 4 + rng.index(6);  // 4..9 messages
  std::vector<analysis::CanMessage> model;
  for (std::size_t i = 0; i < n; ++i) {
    analysis::CanMessage m;
    m.name = "m" + std::to_string(i);
    m.id = static_cast<std::uint32_t>(0x100 + i);
    m.bytes = 1 + rng.index(8);
    m.period = milliseconds(5 * (1 + static_cast<std::int64_t>(rng.index(4))));
    model.push_back(m);
  }
  const auto result = analysis::analyze_can(model, kBitrate);

  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  can::CanBus bus(kernel, trace, {.bitrate_bps = kBitrate});
  auto& sender = bus.attach();
  auto& listener = bus.attach();
  std::map<std::uint32_t, sim::Duration> observed;  // worst queue->delivery
  listener.on_receive([&](const net::Frame& f) {
    auto& worst = observed[f.id];
    worst = std::max(worst, kernel.now() - f.enqueued_at);
  });
  for (const auto& m : model) {
    kernel.schedule_periodic(0, m.period, [&sender, &kernel, m] {
      net::Frame f;
      f.id = m.id;
      f.name = m.name;
      f.payload.assign(m.bytes, 0x55);
      f.enqueued_at = kernel.now();
      sender.send(f);
    });
  }
  kernel.run_until(milliseconds(500));
  // Per-message observed worst response must be dominated by its analytic
  // bound (the analysis is exact under synchronous release, so the bound is
  // also tight at t=0 for the lowest-priority message).
  for (const auto& m : model) {
    auto bound = result.response.find(m.name);
    if (bound == result.response.end()) continue;  // deemed unschedulable
    ASSERT_TRUE(observed.count(m.id)) << m.name << " seed=" << seed;
    EXPECT_LE(observed[m.id], bound->second) << m.name << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanSoundness,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- TDMA exclusivity -------------------------------------------------------------

class TtpExclusivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TtpExclusivity, GuardianKeepsSlotsExclusiveUnderRandomFaults) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Kernel kernel;
  Trace trace;
  ttp::TtpBus bus(kernel, trace, {.slot_len = microseconds(100),
                                  .bus_guardian = true});
  const std::size_t n = 4 + rng.index(5);
  std::vector<ttp::TtpNode*> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(&bus.attach("n" + std::to_string(i)));
  }
  // Random babble windows on up to two random nodes.
  for (int b = 0; b < 2; ++b) {
    auto* node = nodes[rng.index(n)];
    const auto from = milliseconds(rng.uniform(0, 40));
    node->babble(from, from + milliseconds(rng.uniform(1, 20)));
  }
  bus.start();
  kernel.run_until(milliseconds(100));
  // Exclusivity: with guardians, no collisions ever happen and membership is
  // fully intact.
  EXPECT_EQ(bus.collisions(), 0u) << "seed=" << seed;
  EXPECT_EQ(bus.membership_losses(), 0u);
  for (bool member : bus.membership()) EXPECT_TRUE(member);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TtpExclusivity,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Timing isolation sweep ---------------------------------------------------------

class IsolationSweep : public ::testing::TestWithParam<double> {};

TEST_P(IsolationSweep, VictimNeverMissesUnderEnforcement) {
  const double factor = GetParam();
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  os::Ecu ecu(kernel, trace, "host");
  auto& aggressor = ecu.add_task(
      {.name = "aggressor", .priority = 2, .period = milliseconds(10),
       .budget = milliseconds(2)});
  aggressor.set_body([factor] {
    return static_cast<sim::Duration>(milliseconds(2) * factor);
  });
  auto& victim = ecu.add_task({.name = "victim", .priority = 1,
                               .period = milliseconds(10),
                               .relative_deadline = milliseconds(10)});
  victim.set_body(milliseconds(4));
  ecu.start();
  kernel.run_until(milliseconds(1000));
  EXPECT_EQ(victim.deadline_misses(), 0u) << "factor=" << factor;
  EXPECT_EQ(victim.jobs_completed(), 100u);
}

INSTANTIATE_TEST_SUITE_P(OverrunFactors, IsolationSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 5.0, 8.0,
                                           16.0));

// --- Contract algebra ------------------------------------------------------------------

contracts::Contract random_contract(Rng& rng, const std::string& name) {
  contracts::Contract c;
  c.name = name;
  const auto random_flow = [&rng](const std::string& flow) {
    contracts::FlowSpec f;
    f.flow = flow;
    const std::int64_t lo = rng.uniform(-100, 0);
    f.range = {lo, lo + rng.uniform(1, 200)};
    f.timing.period = milliseconds(rng.uniform(1, 50));
    f.timing.latency = milliseconds(rng.uniform(1, 50));
    return f;
  };
  c.assumptions.push_back(random_flow("in"));
  c.guarantees.push_back(random_flow("out"));
  return c;
}

class ContractAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContractAlgebra, DominanceReflexive) {
  Rng rng(GetParam());
  const auto c = random_contract(rng, "c");
  EXPECT_TRUE(contracts::dominates(c, c));
}

TEST_P(ContractAlgebra, DominanceTransitiveOnRefinementChain) {
  Rng rng(GetParam());
  auto a = random_contract(rng, "a");
  // b refines a: widen the accepted input range, tighten the output latency.
  auto b = a;
  b.assumptions[0].range.lo -= rng.uniform(0, 50);
  b.assumptions[0].range.hi += rng.uniform(0, 50);
  b.guarantees[0].timing.latency =
      std::max<sim::Duration>(1, b.guarantees[0].timing.latency / 2);
  auto c = b;
  c.assumptions[0].timing.latency += milliseconds(rng.uniform(0, 20));
  c.guarantees[0].range.hi =
      std::max(c.guarantees[0].range.lo, c.guarantees[0].range.hi - 1);
  ASSERT_TRUE(contracts::dominates(b, a));
  ASSERT_TRUE(contracts::dominates(c, b));
  EXPECT_TRUE(contracts::dominates(c, a));  // transitivity
}

TEST_P(ContractAlgebra, SatisfactionMonotoneUnderTightening) {
  Rng rng(GetParam());
  const auto c = random_contract(rng, "c");
  const auto& g = c.guarantees[0];
  contracts::FlowSpec a = g;  // assumption exactly the guarantee: satisfied
  ASSERT_TRUE(contracts::satisfies(g, a).ok);
  // Tightening the guarantee can never break satisfaction.
  auto tighter = g;
  tighter.range.lo += 1;
  if (tighter.range.lo > tighter.range.hi) tighter.range.lo = tighter.range.hi;
  tighter.timing.latency = std::max<sim::Duration>(1, g.timing.latency - 1);
  EXPECT_TRUE(contracts::satisfies(tighter, a).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractAlgebra,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- COM packing round-trips -------------------------------------------------------------

class ComPackingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComPackingProperty, RandomLayoutRoundTrips) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> payload(8, 0);
  // Carve the 64 bits into consecutive random-width signals.
  struct Sig {
    std::size_t offset, length;
    std::uint64_t value;
  };
  std::vector<Sig> sigs;
  std::size_t cursor = 0;
  while (cursor < 64) {
    const std::size_t len =
        std::min<std::size_t>(64 - cursor, 1 + rng.index(16));
    const std::uint64_t value =
        len == 64 ? rng.next_u64() : rng.next_u64() & ((1ULL << len) - 1);
    sigs.push_back({cursor, len, value});
    cursor += len;
  }
  for (const auto& s : sigs) {
    bsw::pack_signal(payload, s.offset, s.length, s.value);
  }
  for (const auto& s : sigs) {
    EXPECT_EQ(bsw::unpack_signal(payload, s.offset, s.length), s.value)
        << "offset=" << s.offset << " len=" << s.length;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComPackingProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- TT synthesis correctness ---------------------------------------------------------------

class TtSynthesisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TtSynthesisProperty, SynthesizedTableSimulatesWithoutMisses) {
  Rng rng(GetParam());
  // Harmonic periods keep the hyperperiod small and feasibility likely.
  const std::vector<sim::Duration> periods{milliseconds(5), milliseconds(10),
                                           milliseconds(20)};
  std::vector<analysis::TtJobSpec> specs;
  const std::size_t n = 2 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    analysis::TtJobSpec s;
    s.task = "t" + std::to_string(i);
    s.period = periods[rng.index(periods.size())];
    s.wcet = microseconds(200 * (1 + static_cast<std::int64_t>(rng.index(5))));
    specs.push_back(s);
  }
  const auto sched = analysis::synthesize_schedule(specs);
  if (!sched.has_value()) GTEST_SKIP() << "random set infeasible";
  // Windows must be disjoint and within [release, deadline].
  for (std::size_t i = 1; i < sched->windows.size(); ++i) {
    EXPECT_LE(sched->windows[i - 1].second, sched->windows[i].first);
  }
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  os::Ecu ecu(kernel, trace, "tt");
  for (const auto& s : specs) {
    ecu.add_task({.name = s.task, .priority = 1}).set_body(s.wcet);
  }
  ecu.set_schedule_table(sched->entries, sched->cycle);
  ecu.start();
  kernel.run_until(10 * sched->cycle);
  for (const auto& task : ecu.tasks()) {
    EXPECT_EQ(task->deadline_misses(), 0u);
    EXPECT_DOUBLE_EQ(task->response_times().min(),
                     task->response_times().max());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TtSynthesisProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// --- FlexRay static latency bound ---------------------------------------------

class FlexRayBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlexRayBoundProperty, ObservedLatencyWithinAnalyticBounds) {
  Rng rng(GetParam());
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  flexray::FlexRayConfig cfg;
  cfg.static_slots = 2 + rng.index(14);
  cfg.static_payload_bytes = 8 + 8 * rng.index(4);
  cfg.minislots = 10 + rng.index(40);
  cfg.minislot_len = sim::microseconds(1 + static_cast<std::int64_t>(
                                               rng.index(4)));
  cfg.network_idle = sim::microseconds(10 + static_cast<std::int64_t>(
                                                rng.index(90)));
  flexray::FlexRayBus bus(kernel, trace, cfg);
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  const auto slot =
      static_cast<std::uint32_t>(1 + rng.index(cfg.static_slots));
  bus.assign_static_slot(slot, tx);
  const auto bound = analysis::flexray_static_latency(cfg);
  sim::Duration worst = 0;
  rx.on_receive([&](const net::Frame& f) {
    worst = std::max(worst, kernel.now() - f.enqueued_at);
  });
  // Writes at random instants.
  for (int i = 0; i < 200; ++i) {
    kernel.schedule_at(rng.uniform(0, sim::to_us(bus.cycle_len()) * 1000 * 50),
                       [&tx, &kernel, slot] {
                         net::Frame f;
                         f.id = slot;
                         f.payload.assign(4, 0x7E);
                         f.enqueued_at = kernel.now();
                         tx.send(std::move(f));
                       });
  }
  bus.start();
  kernel.run_until(60 * bus.cycle_len());
  EXPECT_LE(worst, bound.worst) << "seed=" << GetParam();
  EXPECT_GT(worst, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlexRayBoundProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- NoC TDMA latency bound ------------------------------------------------------

class NocBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NocBoundProperty, TdmaLatencyBoundedByPeriodPlusTx) {
  Rng rng(GetParam());
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  noc::NocConfig cfg;
  cfg.arbitration = noc::Arbitration::kTdma;
  cfg.slot_len = sim::microseconds(5 + static_cast<std::int64_t>(
                                           rng.index(20)));
  noc::Noc chip(kernel, trace, cfg);
  const std::size_t cores = 2 + rng.index(7);
  std::vector<noc::NetworkInterface*> nis;
  for (std::size_t i = 0; i < cores; ++i) {
    nis.push_back(&chip.attach("c" + std::to_string(i)));
  }
  // Every core sends at most one message per TDMA rotation (admission the
  // schedule was dimensioned for), at a random phase.
  const std::size_t max_bytes = std::min<std::size_t>(
      chip.slot_capacity_bytes(), 256);
  for (std::size_t c = 0; c < cores; ++c) {
    const int src = static_cast<int>(c);
    int dst = static_cast<int>(rng.index(cores));
    if (dst == src) dst = (dst + 1) % static_cast<int>(cores);
    const std::size_t bytes = 1 + rng.index(max_bytes);
    const sim::Duration period =
        chip.period() + rng.uniform(0, chip.period());
    const sim::Time phase = rng.uniform(0, period);
    kernel.schedule_periodic(
        phase, period, [ni = nis[c], dst, bytes] {
          noc::NocMessage m;
          m.destination = dst;
          m.name = "m";
          m.bytes = bytes;
          ni->send(m);
        });
  }
  chip.start();
  kernel.run_until(sim::milliseconds(20));
  // With less than one arrival per rotation, a message waits at most one
  // rotation for its slot plus at most one queued predecessor: 2 periods +
  // serialization bounds every delivery.
  const double bound_us =
      2 * sim::to_us(chip.period()) + sim::to_us(chip.tx_time(max_bytes));
  for (const auto& ni : chip.interfaces()) {
    if (ni->rx_latency().empty()) continue;
    EXPECT_LE(ni->rx_latency().max(), bound_us)
        << ni->name() << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NocBoundProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Holistic analysis vs executable distributed system ------------------------

class HolisticSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HolisticSoundness, ChainBoundsDominateSimulatedLatencies) {
  Rng rng(GetParam());
  constexpr std::int64_t kBitrate = 500'000;
  // Random distributed system: n chains, each = sender task on ECU A ->
  // CAN frame -> receiver task on ECU B.
  const std::size_t n = 2 + rng.index(4);
  const std::vector<sim::Duration> periods{milliseconds(5), milliseconds(10),
                                           milliseconds(20), milliseconds(40)};
  struct Chain {
    sim::Duration period, send_wcet, recv_wcet;
    std::uint32_t id;
  };
  std::vector<Chain> chains;
  // Chain i: sender task 2i on ECU A (index 0) -> message i -> receiver task
  // 2i + 1 on ECU B (index 1).
  std::vector<analysis::DistTask> tasks;
  std::vector<analysis::DistMessage> messages;
  for (std::size_t i = 0; i < n; ++i) {
    Chain ch;
    ch.period = periods[rng.index(periods.size())];
    ch.send_wcet = microseconds(100 * (1 + static_cast<std::int64_t>(
                                               rng.index(10))));
    ch.recv_wcet = microseconds(100 * (1 + static_cast<std::int64_t>(
                                               rng.index(10))));
    ch.id = static_cast<std::uint32_t>(0x100 + i);
    chains.push_back(ch);
    tasks.push_back({.name = "s" + std::to_string(i), .ecu = 0,
                     .wcet = ch.send_wcet, .period = ch.period,
                     .priority = static_cast<int>(100 - i)});
    tasks.push_back({.name = "r" + std::to_string(i), .ecu = 1,
                     .wcet = ch.recv_wcet,
                     .priority = static_cast<int>(100 - i),
                     .source = analysis::DistTask::Source::kMessage,
                     .from = i});
    messages.push_back({.name = "m" + std::to_string(i), .id = ch.id,
                        .bytes = 8, .from_task = 2 * i});
  }
  const auto result = analysis::analyze_holistic(
      tasks, messages, {.can_bitrate_bps = kBitrate});
  if (!result.schedulable) GTEST_SKIP() << "random set unschedulable";

  // Executable equivalent on the raw OS + CAN substrates.
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  os::Ecu ecu_a(kernel, trace, "A");
  os::Ecu ecu_b(kernel, trace, "B");
  can::CanBus bus(kernel, trace, {.bitrate_bps = kBitrate});
  auto& ctrl_a = bus.attach();
  auto& ctrl_b = bus.attach();

  std::vector<double> observed_worst_ms(n, 0.0);
  std::vector<os::Task*> receivers(n);
  std::vector<sim::Time> chain_start(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    auto& recv = ecu_b.add_task(
        {.name = "r" + std::to_string(i),
         .priority = static_cast<int>(100 - i),
         .max_pending_activations = 4});
    recv.set_body(chains[i].recv_wcet);
    receivers[i] = &recv;
    recv.on_complete([&, i](sim::Time, sim::Time done) {
      observed_worst_ms[i] = std::max(
          observed_worst_ms[i], sim::to_ms(done - chain_start[i]));
    });
    auto& send = ecu_a.add_task({.name = "s" + std::to_string(i),
                                 .priority = static_cast<int>(100 - i),
                                 .period = chains[i].period});
    send.set_body(chains[i].send_wcet, [&, i] {
      net::Frame fr;
      fr.id = chains[i].id;
      fr.name = "m" + std::to_string(i);
      fr.payload.assign(8, 0x11);
      fr.enqueued_at = kernel.now();
      ctrl_a.send(std::move(fr));
    });
    // Track the chain head's activation instant for end-to-end measurement.
    ecu_a.find_task("s" + std::to_string(i));
  }
  // Record head activations via the trace (activation -> chain start).
  trace.enable_retention(false);
  std::vector<std::deque<sim::Time>> pending_starts(n);
  for (std::size_t i = 0; i < n; ++i) {
    ecu_a.find_task("s" + std::to_string(i))
        ->on_complete([&, i](sim::Time activated, sim::Time) {
          pending_starts[i].push_back(activated);
        });
  }
  ctrl_b.on_receive([&](const net::Frame& fr) {
    const std::size_t i = fr.id - 0x100;
    if (!pending_starts[i].empty()) {
      chain_start[i] = pending_starts[i].front();
      pending_starts[i].pop_front();
    }
    ecu_b.activate(*receivers[i]);
  });

  ecu_a.start();
  ecu_b.start();
  kernel.run_until(milliseconds(400));

  for (std::size_t i = 0; i < n; ++i) {
    // The chain tail's response, measured from the head's release.
    const auto bound = result.task_response[2 * i + 1];
    EXPECT_LE(observed_worst_ms[i], sim::to_ms(bound) + 1e-9)
        << "chain " << i << " seed=" << GetParam();
    EXPECT_GT(observed_worst_ms[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HolisticSoundness,
                         ::testing::Range<std::uint64_t>(1, 16));

// --- Validator completeness vs the system generator ----------------------------
//
// Property: a model+plan the static validator passes (no error-severity
// diagnostics) NEVER throws from System construction or a short run — the
// validator is a complete front-line for the generator. Conversely, a model
// the validator rejects must be rejected by strict-mode construction too.

struct RandomVfbModel {
  vfb::Composition comp;
  vfb::DeploymentPlan plan;
};

RandomVfbModel random_vfb_model(sim::Rng& rng) {
  using namespace orte::vfb;
  RandomVfbModel m;
  const std::vector<sim::Duration> periods{milliseconds(1), milliseconds(2),
                                           milliseconds(5), milliseconds(10),
                                           milliseconds(20)};
  const std::vector<std::size_t> widths{8, 16, 32, 64};
  const std::size_t pipelines = 1 + rng.index(3);
  for (std::size_t i = 0; i < pipelines; ++i) {
    const std::string suffix = std::to_string(i);
    PortInterface iface;
    iface.name = "I" + suffix;
    iface.kind = PortInterface::Kind::kSenderReceiver;
    DataElement elem;
    elem.name = "val";
    elem.bit_length = widths[rng.index(widths.size())];
    elem.queued = rng.index(3) == 0;
    iface.elements.push_back(elem);
    m.comp.add_interface(iface);

    Runnable produce;
    produce.name = "produce";
    produce.trigger = RunnableTrigger::timing(periods[rng.index(periods.size())]);
    produce.accesses.push_back(
        {"out", "val",
         rng.index(2) == 0 ? DataAccessKind::kImplicitWrite
                           : DataAccessKind::kExplicitWrite});
    m.comp.add_type({"P" + suffix,
                     {Port{"out", iface.name, PortDirection::kProvided}},
                     {produce}});

    Runnable consume;
    consume.name = "consume";
    if (rng.index(3) == 0) {
      consume.trigger = RunnableTrigger::data_received("in", "val");
    } else {
      consume.trigger =
          RunnableTrigger::timing(periods[rng.index(periods.size())]);
    }
    consume.accesses.push_back(
        {"in", "val",
         rng.index(2) == 0 ? DataAccessKind::kImplicitRead
                           : DataAccessKind::kExplicitRead});
    m.comp.add_type({"C" + suffix,
                     {Port{"in", iface.name, PortDirection::kRequired}},
                     {consume}});

    m.comp.add_instance({"p" + suffix, "P" + suffix});
    m.comp.add_instance({"k" + suffix, "C" + suffix});
    m.comp.add_connector({"p" + suffix, "out", "k" + suffix, "in"});
    m.plan.instances["p" + suffix] = {.ecu = rng.index(2) == 0 ? "E0" : "E1"};
    m.plan.instances["k" + suffix] = {.ecu = rng.index(2) == 0 ? "E0" : "E1"};
  }
  return m;
}

class ValidatorCompleteness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValidatorCompleteness, CleanVerdictImpliesThrowFreeGeneration) {
  Rng rng(GetParam());
  auto m = random_vfb_model(rng);
  const auto report = validation::validate(m.comp, m.plan);
  ASSERT_FALSE(report.has_errors()) << report.render();
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  EXPECT_NO_THROW({
    vfb::System sys(kernel, trace, m.comp, m.plan);
    sys.run_for(milliseconds(50));
  }) << "seed=" << GetParam();
}

TEST_P(ValidatorCompleteness, RejectedModelIsRejectedByStrictConstruction) {
  Rng rng(GetParam());
  auto m = random_vfb_model(rng);
  // Inject one defect the validator must catch; the seed picks it, so the
  // 20 seeds cover all 11 kinds.
  switch (GetParam() % 11) {
    case 0:  // undeployed instance
      m.plan.instances.erase(m.plan.instances.begin());
      break;
    case 1:  // dangling connector endpoint
      m.comp.add_connector({"p0", "out", "ghost", "in"});
      break;
    case 2:  // reversed connector
      m.comp.add_connector({"k0", "in", "p0", "out"});
      break;
    case 3:  // instance of an unknown type
      m.comp.add_instance({"zombie", "NoSuchType"});
      break;
    case 4:  // CAN bus without a bitrate
      m.plan.can.bitrate_bps = 0;
      break;
    case 5:  // FlexRay bus without a bitrate
      m.plan.bus = vfb::BusKind::kFlexRay;
      m.plan.flexray.bitrate_bps = 0;
      break;
    case 6:  // FlexRay cycle without a static slot
      m.plan.bus = vfb::BusKind::kFlexRay;
      m.plan.flexray.static_slots = 0;
      break;
    case 7:  // FlexRay minislots of negative length
      m.plan.bus = vfb::BusKind::kFlexRay;
      m.plan.flexray.minislot_len = -microseconds(100);
      break;
    case 8:  // FlexRay cycle with a negative network idle time
      m.plan.bus = vfb::BusKind::kFlexRay;
      m.plan.flexray.network_idle = -milliseconds(1);
      break;
    case 9:  // FlexRay minislots of zero length
      m.plan.bus = vfb::BusKind::kFlexRay;
      m.plan.flexray.minislot_len = 0;
      break;
    default:  // negative execution budget
      m.plan.instances.begin()->second.budget = -5;
      break;
  }
  const auto report = validation::validate(m.comp, m.plan);
  EXPECT_TRUE(report.has_errors()) << "seed=" << GetParam();
  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  // Strict construction validates the one lowering it instantiates; its
  // verdict is exactly the report validate(model, plan) renders.
  try {
    vfb::System sys(kernel, trace, m.comp, m.plan);
    ADD_FAILURE() << "construction should have thrown, seed=" << GetParam();
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "System: model validation failed\n" + report.render())
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorCompleteness,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- V9 static/dynamic cross-check fuzz ----------------------------------------
//
// Property: for every random multi-ECU chain model the generator accepts,
// the holistic V9 bound stamped into each rv::LatencyMonitor dominates the
// latency that monitor actually observes over a long run, and
// System::analyze() bounds the response of every generated task — the
// static analysis is sound w.r.t. the executable system it was derived
// from.

class ChainBoundFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainBoundFuzz, StaticChainBoundDominatesObservedLatency) {
  using namespace orte::vfb;
  Rng rng(GetParam());
  Composition comp;
  DeploymentPlan plan;
  if (rng.index(3) == 0) plan.bus = BusKind::kFlexRay;
  const std::vector<sim::Duration> periods{milliseconds(5), milliseconds(10),
                                           milliseconds(20)};
  const std::size_t pipelines = 1 + rng.index(3);
  std::vector<std::string> event_sinks;
  for (std::size_t i = 0; i < pipelines; ++i) {
    const std::string s = std::to_string(i);
    PortInterface iface;
    iface.name = "I" + s;
    iface.kind = PortInterface::Kind::kSenderReceiver;
    iface.elements.push_back(DataElement{"val", 32, 0, false});
    comp.add_interface(iface);

    Runnable produce;
    produce.name = "produce";
    produce.trigger =
        RunnableTrigger::timing(periods[rng.index(periods.size())]);
    produce.wcet_bound = microseconds(
        50 + 100 * static_cast<std::int64_t>(rng.index(5)));
    produce.accesses.push_back(
        {"out", "val", DataAccessKind::kImplicitWrite});
    produce.behavior = [](RunnableContext& ctx) {
      ctx.write("out", "val", 42);
    };
    comp.add_type({"P" + s,
                   {Port{"out", iface.name, PortDirection::kProvided}},
                   {produce}});

    // Mix of event-triggered consumers (watched 1:1 activation chains) and
    // periodic readers (pure interference on the receiving ECU).
    Runnable consume;
    consume.name = "consume";
    const bool event_sink = rng.index(3) != 0;
    if (event_sink) {
      consume.trigger = RunnableTrigger::data_received("in", "val");
    } else {
      consume.trigger =
          RunnableTrigger::timing(periods[rng.index(periods.size())]);
    }
    consume.wcet_bound = microseconds(
        50 + 100 * static_cast<std::int64_t>(rng.index(5)));
    consume.accesses.push_back(
        {"in", "val", DataAccessKind::kImplicitRead});
    comp.add_type({"C" + s,
                   {Port{"in", iface.name, PortDirection::kRequired}},
                   {consume}});

    comp.add_instance({"p" + s, "P" + s});
    comp.add_instance({"k" + s, "C" + s});
    comp.add_connector({"p" + s, "out", "k" + s, "in"});
    plan.instances["p" + s] = {.ecu = rng.index(2) == 0 ? "E0" : "E1"};
    plan.instances["k" + s] = {.ecu = rng.index(2) == 0 ? "E0" : "E1"};

    // A generous latency obligation on every event sink: far above any
    // schedulable bound, so V9 reports info (never an error that would
    // abort generation) and the monitor gets its static_bound stamped.
    if (event_sink) {
      event_sinks.push_back(s);
      contracts::Contract c{.name = "CChain" + s};
      c.assumptions.push_back(
          contracts::FlowSpec{.flow = "in.val",
                              .timing = {.latency = sim::seconds(5)}});
      comp.bind_contract("k" + s, c);
    }
  }

  const auto report = validation::validate(comp, plan);
  ASSERT_FALSE(report.has_errors()) << report.render();

  Kernel kernel;
  Trace trace;
  trace.enable_retention(false);
  vfb::System sys(kernel, trace, comp, plan);
  // Retention is off: count every key's rte.write emits as they happen.
  const sim::TraceId write_id = trace.intern_category("rte.write");
  std::map<sim::TraceId, std::size_t> writes;
  trace.subscribe_ids([&](const sim::TraceEvent& e) {
    if (e.category_id == write_id) ++writes[e.subject_id];
  });
  const auto analysis = sys.analyze();
  sys.start();
  sys.run_for(milliseconds(400));

  std::size_t checked = 0;
  for (const rv::LatencyMonitor* lm : sys.monitors()->latency_monitors()) {
    if (lm->spec().static_bound <= 0) continue;  // chain not statically bounded
    ASSERT_GT(lm->samples(), 0u)
        << lm->spec().contract << " seed=" << GetParam();
    EXPECT_LE(lm->worst(), lm->spec().static_bound)
        << lm->spec().contract << " seed=" << GetParam();
    ++checked;
  }
  // Every computable event-sink chain bound must have reached its monitor.
  std::size_t computable = 0;
  for (const auto& cb : analysis.bounds) {
    if (cb.computable && !cb.sink_task.empty()) ++computable;
  }
  EXPECT_EQ(checked, computable) << "seed=" << GetParam();
  // One release per write: an event sink runs at most once per write of its
  // producer, the activation count the bounds assume.
  for (const auto& s : event_sinks) {
    const os::Task* sink = sys.ecu(plan.instances.at("k" + s).ecu)
                               .find_task("tk|k" + s + "|consume");
    ASSERT_NE(sink, nullptr) << "k" << s << " seed=" << GetParam();
    EXPECT_LE(sink->jobs_completed(),
              writes[trace.subject_id("p" + s + ".out.val")])
        << "k" << s << " seed=" << GetParam();
  }
  // The configuration check bounds every generated task, event tasks
  // included, and each bound dominates the task's simulated response.
  EXPECT_TRUE(analysis.complete) << "seed=" << GetParam();
  for (const auto& ecu : sys.ecu_names()) {
    for (const auto& task : sys.ecu(ecu).tasks()) {
      const auto bound = analysis.task_response.find(task->name());
      ASSERT_NE(bound, analysis.task_response.end())
          << task->name() << " seed=" << GetParam();
      EXPECT_LE(task->response_times().max(),
                sim::to_ms(bound->second) + 1e-9)
          << task->name() << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainBoundFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
