// Unit tests: fault injectors and the headline timing-isolation behaviour
// (victim protected from aggressor).
#include <gtest/gtest.h>

#include "isolation/fault_injection.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace {

using namespace orte::isolation;
using orte::os::Ecu;
using orte::os::Task;
using orte::sim::Kernel;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;

TEST(FaultInjection, OverrunOnlyInsideWindow) {
  Kernel kernel;
  auto wcet = overrunning_wcet(kernel, milliseconds(1), 3.0,
                               milliseconds(10), milliseconds(20));
  EXPECT_EQ(wcet(), milliseconds(1));  // t = 0
  kernel.schedule_at(milliseconds(15), [] {});
  kernel.run_until(milliseconds(15));
  EXPECT_EQ(wcet(), milliseconds(3));
  kernel.schedule_at(milliseconds(25), [] {});
  kernel.run_until(milliseconds(25));
  EXPECT_EQ(wcet(), milliseconds(1));
}

TEST(FaultInjection, FactorBelowOneRejected) {
  Kernel kernel;
  EXPECT_THROW(overrunning_wcet(kernel, 1, 0.5, 0, 1), std::invalid_argument);
}

TEST(FaultInjection, JitteryWcetBounded) {
  orte::sim::Rng rng(1);
  auto wcet = jittery_wcet(rng, milliseconds(2), 0.3);
  for (int i = 0; i < 200; ++i) {
    const auto c = wcet();
    EXPECT_LE(c, milliseconds(2));
    EXPECT_GE(c, static_cast<orte::sim::Duration>(milliseconds(2) * 0.7) - 1);
  }
}

TEST(FaultInjection, OverrunWindowBoundariesAreHalfOpen) {
  // [from, until): active exactly at `from`, back to nominal at `until`.
  Kernel kernel;
  auto wcet = overrunning_wcet(kernel, milliseconds(1), 2.0,
                               milliseconds(10), milliseconds(20));
  kernel.schedule_at(milliseconds(10), [] {});
  kernel.run_until(milliseconds(10));
  EXPECT_EQ(wcet(), milliseconds(2));
  kernel.schedule_at(milliseconds(20), [] {});
  kernel.run_until(milliseconds(20));
  EXPECT_EQ(wcet(), milliseconds(1));
}

TEST(FaultInjection, JitteryWcetDeterministicForSameSeed) {
  orte::sim::Rng a(9), b(9);
  auto wa = jittery_wcet(a, milliseconds(2), 0.5);
  auto wb = jittery_wcet(b, milliseconds(2), 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(wa(), wb());
}

TEST(FaultInjection, JitteryWcetRejectsFractionOutsideUnit) {
  orte::sim::Rng rng(1);
  EXPECT_THROW(jittery_wcet(rng, milliseconds(1), -0.1),
               std::invalid_argument);
  EXPECT_THROW(jittery_wcet(rng, milliseconds(1), 1.5),
               std::invalid_argument);
}

TEST(FaultInjection, CrashingWcetGoesSilent) {
  Kernel kernel;
  auto wcet = crashing_wcet(kernel, milliseconds(1), milliseconds(5));
  EXPECT_EQ(wcet(), milliseconds(1));
  kernel.schedule_at(milliseconds(6), [] {});
  kernel.run_until(milliseconds(6));
  EXPECT_EQ(wcet(), 0);
}

// The paper's core isolation scenario as a single test: three suppliers on
// one ECU; supplier B's task overruns x4. Without budgets the victim misses
// deadlines; with budget enforcement it never does.
struct IsolationScenario {
  Kernel kernel;
  Trace trace;
  Ecu ecu{kernel, trace, "host"};
  Task* victim = nullptr;
  Task* aggressor = nullptr;

  explicit IsolationScenario(bool enforce) {
    auto& a = ecu.add_task(
        {.name = "supplierA", .priority = 3, .period = milliseconds(5),
         .budget = enforce ? milliseconds(1) : 0});
    a.set_body(microseconds(800));
    auto& b = ecu.add_task(
        {.name = "supplierB", .priority = 2, .period = milliseconds(10),
         .budget = enforce ? milliseconds(2) : 0});
    // B overruns its 2ms contract by 4x from t=100ms on.
    b.add_segment({.duration = orte::isolation::overrunning_wcet(
                       kernel, milliseconds(2), 4.0, milliseconds(100),
                       milliseconds(400))});
    auto& c = ecu.add_task(
        {.name = "supplierC", .priority = 1, .period = milliseconds(10),
         .relative_deadline = milliseconds(10),
         .budget = enforce ? milliseconds(3) : 0});
    c.set_body(milliseconds(3));
    victim = &c;
    aggressor = &b;
    ecu.start();
  }
};

TEST(TimingIsolation, WithoutBudgetsVictimSuffers) {
  IsolationScenario s(/*enforce=*/false);
  s.kernel.run_until(milliseconds(500));
  EXPECT_GT(s.victim->deadline_misses(), 0u);
}

TEST(TimingIsolation, WithBudgetsVictimProtected) {
  IsolationScenario s(/*enforce=*/true);
  s.kernel.run_until(milliseconds(500));
  EXPECT_EQ(s.victim->deadline_misses(), 0u);
  EXPECT_GT(s.aggressor->jobs_killed(), 0u);  // the fault is sanctioned
  // Outside the fault window the aggressor completes normally.
  EXPECT_GT(s.aggressor->jobs_completed(), 0u);
}

}  // namespace
