// Unit tests: ECU kernel — fixed-priority preemptive scheduling, schedule
// tables, execution budgets and partitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"

namespace {

using namespace orte::os;
using orte::sim::Kernel;
using orte::sim::Trace;
using orte::sim::microseconds;
using orte::sim::milliseconds;
using orte::test::records_of;

struct Fixture {
  Kernel kernel;
  Trace trace;
  Ecu ecu{kernel, trace, "ecu0"};
};

TEST(Ecu, PeriodicTaskRunsEveryPeriod) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t1", .priority = 1,
                            .period = milliseconds(10)});
  t.set_body(milliseconds(2));
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_EQ(t.jobs_completed(), 10u);
  EXPECT_EQ(t.deadline_misses(), 0u);
  // Alone on the CPU: response == wcet.
  EXPECT_DOUBLE_EQ(t.response_times().max(), 2.0);
}

TEST(Ecu, HigherPriorityPreempts) {
  Fixture f;
  Task& lo = f.ecu.add_task({.name = "lo", .priority = 1,
                             .period = milliseconds(20)});
  lo.set_body(milliseconds(8));
  Task& hi = f.ecu.add_task({.name = "hi", .priority = 2,
                             .period = milliseconds(20),
                             .offset = milliseconds(2)});
  hi.set_body(milliseconds(3));
  f.ecu.start();
  f.kernel.run_until(milliseconds(20));
  // hi released at 2ms preempts lo; hi done at 5ms, lo resumes, done at 11ms.
  EXPECT_DOUBLE_EQ(hi.response_times().max(), 3.0);
  EXPECT_DOUBLE_EQ(lo.response_times().max(), 11.0);
}

TEST(Ecu, EqualPriorityDoesNotPreempt) {
  Fixture f;
  Task& a = f.ecu.add_task({.name = "a", .priority = 1,
                            .period = milliseconds(20)});
  a.set_body(milliseconds(5));
  Task& b = f.ecu.add_task({.name = "b", .priority = 1,
                            .period = milliseconds(20),
                            .offset = milliseconds(1)});
  b.set_body(milliseconds(5));
  f.ecu.start();
  f.kernel.run_until(milliseconds(20));
  // b must wait for a to finish: response = 5 + 5 - 1 = 9ms.
  EXPECT_DOUBLE_EQ(a.response_times().max(), 5.0);
  EXPECT_DOUBLE_EQ(b.response_times().max(), 9.0);
}

TEST(Ecu, EqualPriorityReadyTasksRunInRegistrationOrder) {
  // The tie rule among waiting jobs is registration order, not OSEK's FIFO
  // activation order: two equal-priority tasks made ready while a
  // higher-priority task runs start in the order they were added.
  Fixture f;
  Task& first = f.ecu.add_task({.name = "first", .priority = 1});
  first.set_body(milliseconds(1));
  Task& second = f.ecu.add_task({.name = "second", .priority = 1});
  second.set_body(milliseconds(1));
  Task& hi = f.ecu.add_task({.name = "hi", .priority = 2,
                             .period = milliseconds(100)});
  hi.set_body(milliseconds(5));
  f.ecu.start();
  f.kernel.schedule_at(milliseconds(1), [&] { f.ecu.activate(second); });
  f.kernel.schedule_at(milliseconds(2), [&] { f.ecu.activate(first); });
  f.kernel.run_until(milliseconds(10));
  std::vector<std::string> starts;
  for (const auto& rec : f.trace.records()) {
    if (rec.category == "task.start") starts.push_back(rec.subject);
  }
  EXPECT_EQ(starts, (std::vector<std::string>{"hi", "first", "second"}));
}

TEST(Ecu, ResponseTimeMatchesClassicExample) {
  // Three-task RM example: C = {1, 2, 3}, T = {4, 8, 16}.
  Fixture f;
  Task& t1 = f.ecu.add_task({.name = "t1", .priority = 3,
                             .period = milliseconds(4)});
  t1.set_body(milliseconds(1));
  Task& t2 = f.ecu.add_task({.name = "t2", .priority = 2,
                             .period = milliseconds(8)});
  t2.set_body(milliseconds(2));
  Task& t3 = f.ecu.add_task({.name = "t3", .priority = 1,
                             .period = milliseconds(16)});
  t3.set_body(milliseconds(3));
  f.ecu.start();
  f.kernel.run_until(milliseconds(160));
  EXPECT_DOUBLE_EQ(t1.response_times().max(), 1.0);
  EXPECT_DOUBLE_EQ(t2.response_times().max(), 3.0);
  EXPECT_DOUBLE_EQ(t3.response_times().max(), 7.0);  // R3 = 3 + 1*2 + 2*1
  EXPECT_EQ(t3.deadline_misses(), 0u);
}

TEST(Ecu, DeadlineMissDetected) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10),
                            .relative_deadline = milliseconds(5)});
  t.set_body(milliseconds(6));  // always misses the 5ms deadline
  f.ecu.start();
  f.kernel.run_until(milliseconds(50));
  EXPECT_EQ(t.jobs_completed(), 5u);
  EXPECT_EQ(t.deadline_misses(), 5u);
}

TEST(Ecu, BudgetKillStopsOverrunningJob) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10),
                            .budget = milliseconds(3)});
  t.set_body(milliseconds(7));
  f.ecu.start();
  f.kernel.run_until(milliseconds(50));
  EXPECT_EQ(t.jobs_completed(), 0u);
  EXPECT_EQ(t.jobs_killed(), 5u);
  // CPU time consumed per job is exactly the budget.
  EXPECT_NEAR(f.ecu.utilization(), 0.3, 1e-9);
}

TEST(Ecu, BudgetDoesNotFireWithinLimit) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10),
                            .budget = milliseconds(3)});
  t.set_body(milliseconds(3));  // exactly the budget: must complete
  f.ecu.start();
  f.kernel.run_until(milliseconds(50));
  EXPECT_EQ(t.jobs_completed(), 5u);
  EXPECT_EQ(t.jobs_killed(), 0u);
}

TEST(Ecu, PartitionThrottlesWhenExhausted) {
  Fixture f;
  const int part = f.ecu.add_partition(
      {.name = "p0", .budget = milliseconds(2), .period = milliseconds(10)});
  Task& greedy = f.ecu.add_task({.name = "greedy", .priority = 2,
                                 .period = milliseconds(10),
                                 .partition = part});
  greedy.set_body(milliseconds(6));
  Task& victim = f.ecu.add_task({.name = "victim", .priority = 1,
                                 .period = milliseconds(10),
                                 .offset = milliseconds(1)});
  victim.set_body(milliseconds(3));
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  // greedy gets only 2ms per 10ms window; victim (outside the partition)
  // still completes on time every period.
  EXPECT_EQ(victim.deadline_misses(), 0u);
  EXPECT_EQ(victim.jobs_completed(), 10u);
  EXPECT_GT(f.ecu.partition_throttles(part), 0u);
  EXPECT_LT(greedy.jobs_completed(), 10u);  // it keeps being throttled
}

TEST(Ecu, PartitionBudgetReplenishes) {
  Fixture f;
  const int part = f.ecu.add_partition(
      {.name = "p0", .budget = milliseconds(5), .period = milliseconds(10)});
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10), .partition = part});
  t.set_body(milliseconds(4));  // fits the 5ms budget every period
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_EQ(t.jobs_completed(), 10u);
  EXPECT_EQ(f.ecu.partition_throttles(part), 0u);
}

TEST(Ecu, ScheduleTableDispatchesAtOffsets) {
  Fixture f;
  Task& a = f.ecu.add_task({.name = "a", .priority = 1});
  a.set_body(milliseconds(1));
  Task& b = f.ecu.add_task({.name = "b", .priority = 1});
  b.set_body(milliseconds(1));
  f.ecu.set_schedule_table({{milliseconds(0), "a"}, {milliseconds(5), "b"}},
                           milliseconds(10));
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_EQ(a.jobs_completed(), 10u);
  EXPECT_EQ(b.jobs_completed(), 10u);
  // Table-dispatched tasks never contend: every response == wcet.
  EXPECT_DOUBLE_EQ(a.response_times().max(), 1.0);
  EXPECT_DOUBLE_EQ(b.response_times().max(), 1.0);
  EXPECT_DOUBLE_EQ(a.response_times().min(), 1.0);
}

TEST(Ecu, ScheduleTableRejectsBadOffsets) {
  Fixture f;
  f.ecu.add_task({.name = "a", .priority = 1}).set_body(1);
  EXPECT_THROW(
      f.ecu.set_schedule_table({{milliseconds(15), "a"}}, milliseconds(10)),
      std::invalid_argument);
}

TEST(Ecu, EventActivationAndChaining) {
  Fixture f;
  Task& consumer = f.ecu.add_task({.name = "consumer", .priority = 2});
  consumer.set_body(microseconds(100));
  Task& producer = f.ecu.add_task({.name = "producer", .priority = 1,
                                   .period = milliseconds(10)});
  producer.set_body(milliseconds(1),
                    [&] { f.ecu.activate(consumer); });
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_EQ(producer.jobs_completed(), 10u);
  EXPECT_EQ(consumer.jobs_completed(), 10u);
}

TEST(Ecu, ActivationQueueingAndLoss) {
  Fixture f;
  Task& slow = f.ecu.add_task(
      {.name = "slow", .priority = 1, .max_pending_activations = 1});
  slow.set_body(milliseconds(30));
  Task& trigger = f.ecu.add_task({.name = "trigger", .priority = 2,
                                  .period = milliseconds(10)});
  trigger.set_body(microseconds(10), [&] { f.ecu.activate(slow); });
  f.ecu.start();
  f.kernel.run_until(milliseconds(95));
  // 10 activations (0..90ms); each job takes 30ms => most overlap.
  EXPECT_GT(slow.activations_lost(), 0u);
  EXPECT_EQ(slow.activations(), 10u);
}

TEST(Ecu, MultiSegmentHooksRunInOrder) {
  Fixture f;
  std::vector<std::string> log;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10)});
  t.add_segment({.duration = [] { return milliseconds(1); },
                 .before = [&] { log.push_back("b0"); },
                 .after = [&] { log.push_back("a0"); }});
  t.add_segment({.duration = [] { return milliseconds(1); },
                 .before = [&] { log.push_back("b1"); },
                 .after = [&] { log.push_back("a1"); }});
  f.ecu.start();
  f.kernel.run_until(milliseconds(9));  // before the t=10ms activation
  EXPECT_EQ(log, (std::vector<std::string>{"b0", "a0", "b1", "a1"}));
}

TEST(Ecu, UtilizationAccounting) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10)});
  t.set_body(milliseconds(4));
  f.ecu.start();
  f.kernel.run_until(milliseconds(100));
  EXPECT_NEAR(f.ecu.utilization(), 0.4, 1e-9);
}

TEST(Ecu, CompletionCallbackReportsTimes) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10)});
  t.set_body(milliseconds(2));
  std::vector<std::pair<orte::sim::Time, orte::sim::Time>> jobs;
  t.on_complete([&](orte::sim::Time act, orte::sim::Time done) {
    jobs.emplace_back(act, done);
  });
  f.ecu.start();
  f.kernel.run_until(milliseconds(25));
  ASSERT_EQ(jobs.size(), 3u);  // activations at 0, 10, 20 ms
  EXPECT_EQ(jobs[0].first, 0);
  EXPECT_EQ(jobs[0].second, milliseconds(2));
  EXPECT_EQ(jobs[1].first, milliseconds(10));
  EXPECT_EQ(jobs[2].second, milliseconds(22));
}

TEST(Ecu, ConfigurationErrorsThrow) {
  Fixture f;
  EXPECT_THROW(f.ecu.add_partition({.name = "p", .budget = 0, .period = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      f.ecu.add_task({.name = "x", .priority = 0, .partition = 5}),
      std::invalid_argument);
  Task& bodyless = f.ecu.add_task({.name = "nobody", .priority = 0,
                                   .period = milliseconds(1)});
  (void)bodyless;
  EXPECT_THROW(
      {
        f.ecu.start();
        f.kernel.run_until(milliseconds(2));
      },
      std::logic_error);
}

TEST(Ecu, TraceEmitsLifecycleEvents) {
  Fixture f;
  Task& t = f.ecu.add_task({.name = "t", .priority = 1,
                            .period = milliseconds(10)});
  t.set_body(milliseconds(1));
  f.ecu.start();
  f.kernel.run_until(milliseconds(35));
  EXPECT_EQ(records_of(f.trace, "task.activate", "t"), 4u);  // 0, 10, 20, 30 ms
  EXPECT_EQ(records_of(f.trace, "task.complete", "t"), 4u);  // 1, 11, 21, 31 ms
}

}  // namespace
