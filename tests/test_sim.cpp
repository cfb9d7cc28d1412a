// Unit tests: discrete-event kernel, RNG, statistics, trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "trace_recount.hpp"

namespace {

using namespace orte::sim;
using orte::test::counts_match_records;
using orte::test::records_of;

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(300, [&] { order.push_back(3); });
  k.schedule_at(100, [&] { order.push_back(1); });
  k.schedule_at(200, [&] { order.push_back(2); });
  k.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 1000);
}

TEST(Kernel, SameInstantOrderedByPriorityThenSequence) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(100, [&] { order.push_back(2); }, EventOrder::kSoftware);
  k.schedule_at(100, [&] { order.push_back(1); }, EventOrder::kHardware);
  k.schedule_at(100, [&] { order.push_back(3); }, EventOrder::kSoftware);
  k.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, SchedulingInThePastThrows) {
  Kernel k;
  k.schedule_at(100, [] {});
  k.run_until(500);
  EXPECT_THROW(k.schedule_at(100, [] {}), std::invalid_argument);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  int fired = 0;
  auto h = k.schedule_at(100, [&] { ++fired; });
  k.cancel(h);
  k.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST(Kernel, PeriodicFiresRepeatedlyAndCancels) {
  Kernel k;
  int fired = 0;
  auto h = k.schedule_periodic(100, 100, [&] { ++fired; });
  k.run_until(550);
  EXPECT_EQ(fired, 5);  // 100..500
  k.cancel(h);
  k.run_until(2000);
  EXPECT_EQ(fired, 5);
}

TEST(Kernel, PeriodicSelfCancelFromPayload) {
  Kernel k;
  int fired = 0;
  EventHandle h = k.schedule_periodic(10, 10, [&] {
    if (++fired == 3) k.cancel(h);
  });
  k.run_until(1000);
  EXPECT_EQ(fired, 3);
}

TEST(Kernel, CancelDuringSameInstantPreventsLaterEvent) {
  Kernel k;
  int fired = 0;
  // Both events share t=100; the hardware-order event cancels the
  // software-order one before it is popped within the same instant.
  EventHandle victim =
      k.schedule_at(100, [&] { ++fired; }, EventOrder::kSoftware);
  k.schedule_at(100, [&] { k.cancel(victim); }, EventOrder::kHardware);
  k.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST(Kernel, ReScheduleAfterCancel) {
  Kernel k;
  int first = 0, second = 0;
  auto h = k.schedule_periodic(100, 100, [&] { ++first; });
  k.cancel(h);
  auto h2 = k.schedule_periodic(100, 100, [&] { ++second; });
  k.run_until(550);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 5);
  k.cancel(h2);
  k.run_until(1000);
  EXPECT_EQ(second, 5);
}

TEST(Kernel, CancelIsIdempotentAndIgnoresInvalidHandles) {
  Kernel k;
  int fired = 0;
  auto h = k.schedule_at(100, [&] { ++fired; });
  k.cancel(h);
  k.cancel(h);               // double cancel: no effect, no double count
  k.cancel(EventHandle{});   // invalid handle: no-op
  k.run_until(1000);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(k.counters().cancelled, 1u);
}

TEST(Kernel, CancelChurnStaysLinearAndBounded) {
  // Guards the O(1) cancellation fix: the old implementation kept every
  // cancelled id forever and scanned the list on every pop (O(n^2) run time,
  // unbounded memory). Counters must show every dead event purged.
  Kernel k;
  constexpr int kEvents = 100'000;
  std::uint64_t fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    auto h = k.schedule_at(i + 1, [&] { ++fired; });
    if (i % 2 == 0) k.cancel(h);
  }
  const KernelCounters mid = k.counters();
  EXPECT_EQ(mid.queue_depth, static_cast<std::uint64_t>(kEvents));
  k.run_until(kEvents + 1);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents / 2));
  EXPECT_EQ(k.events_executed(), fired);
  const KernelCounters after = k.counters();
  EXPECT_EQ(after.pushed, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(after.popped, after.pushed);  // every event left the queue
  EXPECT_EQ(after.skipped_dead, static_cast<std::uint64_t>(kEvents / 2));
  EXPECT_EQ(after.cancelled, after.skipped_dead);
  EXPECT_EQ(after.queue_depth, 0u);  // nothing retained after the run
  EXPECT_EQ(after.peak_queue_depth, static_cast<std::uint64_t>(kEvents));
}

TEST(Kernel, PeriodicCancelMidSeriesPurgesPendingOccurrence) {
  Kernel k;
  int fired = 0;
  auto h = k.schedule_periodic(100, 100, [&] { ++fired; });
  k.run_until(250);  // two occurrences fired; the third is pending
  EXPECT_EQ(fired, 2);
  k.cancel(h);
  k.run_until(2000);
  EXPECT_EQ(fired, 2);
  // The dead occurrence was popped and purged, not retained.
  EXPECT_EQ(k.counters().skipped_dead, 1u);
  EXPECT_EQ(k.counters().queue_depth, 0u);
}

TEST(Kernel, EventsScheduledDuringEventRun) {
  Kernel k;
  int fired = 0;
  k.schedule_at(100, [&] {
    k.schedule_in(50, [&] { ++fired; });
  });
  k.run_until(1000);
  EXPECT_EQ(fired, 1);
}

TEST(Kernel, HorizonStopsBeforeLaterEvents) {
  Kernel k;
  int fired = 0;
  k.schedule_at(100, [&] { ++fired; });
  k.schedule_at(900, [&] { ++fired; });
  k.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 500);
  k.run_until(1000);
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run = [] {
    Kernel k;
    Rng rng(42);
    std::vector<Time> fire_times;
    for (int i = 0; i < 100; ++i) {
      k.schedule_at(rng.uniform(0, 10000),
                    [&, i] { fire_times.push_back(k.now()); });
    }
    k.run_until(20000);
    return fire_times;
  };
  EXPECT_EQ(run(), run());
}

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(7)), 7.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIsPureAndOrderIndependent) {
  // fork() must be a pure function of (parent state, stream id): it neither
  // advances the parent nor depends on earlier forks.
  Rng a(7), b(7);
  Rng a1 = a.fork(1);
  (void)a.fork(99);          // an interleaved fork must not matter
  Rng a1_again = a.fork(1);  // nor must forking twice
  Rng b1 = b.fork(1);
  for (int i = 0; i < 100; ++i) {
    const auto expected = b1.next_u64();
    EXPECT_EQ(a1.next_u64(), expected);
    EXPECT_EQ(a1_again.next_u64(), expected);
  }
  // ... and the parent stream is untouched by all of the forking above.
  Rng untouched(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), untouched.next_u64());
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng parent(7);
  Rng s0 = parent.fork(0), s1 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDependsOnParentState) {
  Rng a(7), b(8);
  Rng fa = a.fork(4), fb = b.fork(4);
  EXPECT_NE(fa.next_u64(), fb.next_u64());
  // Advancing the parent changes what subsequent forks derive.
  Rng c(7);
  (void)c.next_u64();
  Rng fc = c.fork(4);
  Rng fa2 = Rng(7).fork(4);
  EXPECT_NE(fc.next_u64(), fa2.next_u64());
}

TEST(Rng, UUniFastSumsToTarget) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto u = rng.uunifast(8, 0.7);
    ASSERT_EQ(u.size(), 8u);
    double sum = 0;
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 0.7, 1e-9);
  }
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.spread(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, PercentileOutsideRangeThrows) {
  Stats s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_THROW((void)s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(100.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
  // The boundaries themselves stay valid.
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 2.0);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(Trace, RetainsAndCounts) {
  Trace t;
  t.emit(10, "cat.a", "x");
  t.emit(20, "cat.a", "y");
  t.emit(30, "cat.b", "x", 7, "detail");
  EXPECT_EQ(t.count("cat.a"), 2u);
  EXPECT_EQ(t.count("cat.b"), 1u);
  EXPECT_EQ(records_of(t, "cat.a", "x"), 1u);
  EXPECT_EQ(t.records().back().value, 7);
  EXPECT_EQ(t.records().back().detail, "detail");
}

TEST(Trace, ListenersSeeEveryEmit) {
  Trace t;
  int seen = 0;
  t.subscribe_ids([&](const TraceEvent& e) {
    if (t.category_name(e.category_id) == "hit") ++seen;
  });
  t.emit(1, "hit", "a");
  t.emit(2, "miss", "b");
  t.emit(3, "hit", "c");
  EXPECT_EQ(seen, 2);
}

TEST(Trace, RetentionCanBeDisabled) {
  Trace t;
  t.enable_retention(false);
  t.emit(1, "x", "y");
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, CountsWorkWithRetentionDisabled) {
  Trace t;
  t.enable_retention(false);
  t.emit(1, "cat", "a");
  t.emit(2, "cat", "a");
  t.emit(3, "cat", "b");
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.count("cat"), 3u);
}

TEST(Trace, ListenersRunInSubscriptionOrder) {
  Trace t;
  std::vector<int> order;
  t.subscribe_ids([&](const TraceEvent&) { order.push_back(1); });
  t.subscribe_ids([&](const TraceEvent&) { order.push_back(2); });
  t.subscribe_ids([&](const TraceEvent&) { order.push_back(3); });
  t.emit(1, "cat", "s");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Trace, RetentionToggleMidRunKeepsCounting) {
  Trace t;
  t.emit(1, "cat", "s");
  t.enable_retention(false);
  t.emit(2, "cat", "s");
  t.emit(3, "cat", "s");
  t.enable_retention(true);
  t.emit(4, "cat", "s");
  // Records cover only the retained windows; counts cover everything.
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records().front().when, 1);
  EXPECT_EQ(t.records().back().when, 4);
  EXPECT_EQ(t.count("cat"), 4u);
}

TEST(Trace, UnobservedEmitsStillCount) {
  // No listeners, retention off: emit() takes the fast path that skips
  // building the record, but the category count must still advance.
  Trace t;
  t.enable_retention(false);
  for (int i = 0; i < 100; ++i) t.emit(i, "fast", "path");
  EXPECT_EQ(t.count("fast"), 100u);
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, CountsSurviveMove) {
  Trace t;
  t.emit(1, "cat", "s");
  t.emit(2, "cat", "s");
  Trace moved = std::move(t);
  EXPECT_EQ(moved.count("cat"), 2u);
  EXPECT_EQ(moved.records().size(), 2u);
  moved.emit(3, "cat", "s");
  EXPECT_EQ(moved.count("cat"), 3u);
}

// --- Interning ----------------------------------------------------------------

// Records keep the names; listeners get the interned IDs.
TEST(Trace, RecordsCarryInternedIds) {
  Trace t;
  std::vector<TraceEvent> seen;
  t.subscribe_ids([&](const TraceEvent& e) { seen.push_back(e); });
  t.emit(1, "cat.a", "x");
  t.emit(2, "cat.b", "y");
  ASSERT_EQ(seen.size(), 2u);
  const TraceEvent& a = seen[0];
  const TraceEvent& b = seen[1];
  EXPECT_EQ(a.category_id, t.category_id("cat.a"));
  EXPECT_EQ(a.subject_id, t.subject_id("x"));
  EXPECT_EQ(b.category_id, t.category_id("cat.b"));
  EXPECT_EQ(b.subject_id, t.subject_id("y"));
  EXPECT_NE(a.category_id, b.category_id);
  EXPECT_NE(a.subject_id, b.subject_id);
  // Reverse lookup round-trips to the retained record's names.
  EXPECT_EQ(t.category_name(a.category_id), t.records()[0].category);
  EXPECT_EQ(t.subject_name(b.subject_id), t.records()[1].subject);
  // ID-keyed counting agrees with string-keyed counting.
  EXPECT_EQ(t.count(a.category_id), 1u);
  EXPECT_EQ(t.count("cat.a"), 1u);
}

TEST(Trace, UnseenNamesHaveNoId) {
  Trace t;
  t.emit(1, "cat", "s");
  EXPECT_EQ(t.category_id("other"), kNoTraceId);
  EXPECT_EQ(t.subject_id("other"), kNoTraceId);
  EXPECT_EQ(t.count(kNoTraceId), 0u);
  EXPECT_TRUE(t.category_name(kNoTraceId).empty());
}

TEST(Trace, PreInterningAssignsTheSameIdEmitWillUse) {
  Trace t;
  const TraceId cat = t.intern_category("rte.write");
  const TraceId subj = t.intern_subject("pedal.out.v");
  TraceEvent seen{};
  t.subscribe_ids([&](const TraceEvent& e) { seen = e; });
  t.emit(5, "rte.write", "pedal.out.v");
  EXPECT_EQ(seen.category_id, cat);
  EXPECT_EQ(seen.subject_id, subj);
  EXPECT_EQ(t.count(cat), 1u);
}

// Guard against silent index drift: the per-category counts must match a
// recount of the retained records whenever retention covers every emit.
TEST(Trace, CountsMatchRecordsWhileRetentionIsComplete) {
  Trace t;
  t.intern_category("cat.unused");  // interned, never emitted: count 0
  t.emit(1, "cat.a", "x");
  t.emit(2, "cat.a", "y");
  t.emit(3, "cat.b", "x", 7, "detail");
  EXPECT_TRUE(counts_match_records(t));
  // An unretained emit legitimately decouples counts from records.
  t.enable_retention(false);
  t.emit(4, "cat.a", "x");
  EXPECT_FALSE(counts_match_records(t));
}

// --- Golden event order across storage layers --------------------------------

// A deterministic pseudo-random mix of one-shots, periodics, same-instant
// ties across every order class, chained scheduling, and cancels (up-front,
// in-flight, self-, cross-, stale-). The FNV-1a hash below was produced by
// the flat binary-heap kernel that predates the slot pool and timer wheel;
// the current kernel must reproduce the exact firing sequence, bit for bit.
// If an intentional ordering change ever lands, regenerate the constant with
// the PREVIOUS kernel and document the break.
std::uint64_t golden_workload_hash(std::size_t* fired_count) {
  Kernel k;
  Rng rng(0xC0FFEE);
  std::vector<std::pair<Time, int>> fired;
  std::vector<EventHandle> handles;
  const EventOrder orders[5] = {EventOrder::kHardware, EventOrder::kKernel,
                                EventOrder::kDefault, EventOrder::kSoftware,
                                EventOrder::kObserver};
  for (int i = 0; i < 400; ++i) {
    const Time when = rng.uniform(0, 200000);
    const EventOrder ord = orders[rng.uniform(0, 4)];
    const int tag = i;
    handles.push_back(k.schedule_at(
        when,
        [&k, &fired, &handles, tag] {
          fired.emplace_back(k.now(), tag);
          if (tag % 7 == 0) {
            k.schedule_in(tag % 3 == 0 ? 0 : 37, [&k, &fired, tag] {
              fired.emplace_back(k.now(), 1000 + tag);
            });
          }
          if (tag % 11 == 0) {
            k.cancel(handles[static_cast<std::size_t>(tag * 13) %
                             handles.size()]);
          }
        },
        ord));
  }
  std::vector<int> pfires(40, 0);
  std::vector<EventHandle> ph(40);
  for (int p = 0; p < 40; ++p) {
    const Time first = rng.uniform(0, 3000);
    const Duration period = rng.uniform(1, 997);
    const EventOrder ord = orders[rng.uniform(0, 4)];
    ph[p] = k.schedule_periodic(
        first, period,
        [&k, &fired, &pfires, &ph, p] {
          fired.emplace_back(k.now(), 2000 + p);
          if (++pfires[p] == 5 + p % 17) k.cancel(ph[p]);
          if (p == 13 && pfires[p] == 3) k.cancel(ph[27]);
        },
        ord);
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) k.cancel(handles[i]);
  k.run_until(250000);
  for (auto& h : handles) k.cancel(h);  // all stale by now: must be no-ops
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& [t, tag] : fired) {
    mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(tag));
  }
  mix(fired.size());
  mix(k.counters().executed);
  mix(k.counters().cancelled);
  if (fired_count != nullptr) *fired_count = fired.size();
  return h;
}

TEST(Kernel, GoldenEventOrderMatchesFlatHeapKernel) {
  std::size_t fired = 0;
  EXPECT_EQ(golden_workload_hash(&fired), 0x56c289cc20f4bc5dull);
  EXPECT_EQ(fired, 770u);
}

// A second golden order, across the wheel's placement: four sparse chains
// run through six wheel horizons (~100 ms), and two bursts (at 20 and 50 ms)
// take the queue from a handful of keys to several hundred and let it drain
// again, so far keys are scheduled both while the queue is deep and while it
// is shallow. The bursts mix same-instant ties in every order class, chained
// follow-ups and cancels. The hash was produced by the kernel that parked
// every far key; `far` counts the schedule calls that kernel parked (due in
// a later bucket within the horizon).
struct SwingRun {
  std::uint64_t hash = 0;
  std::size_t fired = 0;
  std::size_t far = 0;
  KernelCounters counters;
};

SwingRun depth_swing_workload() {
  constexpr Time kBucket = Time{1} << 16;   // wheel bucket width
  constexpr Time kHorizon = 256 * kBucket;  // wheel horizon (~16.8 ms)
  Kernel k;
  Rng rng(0x5EED);
  SwingRun run;
  std::vector<std::pair<Time, int>> fired;
  std::vector<EventHandle> handles;
  const EventOrder orders[5] = {EventOrder::kHardware, EventOrder::kKernel,
                                EventOrder::kDefault, EventOrder::kSoftware,
                                EventOrder::kObserver};
  int next_tag = 100;
  std::function<void(int)> fire;
  const auto at = [&](Time when, int tag) {
    const Time now_bucket = k.now() / kBucket;
    const Time when_bucket = when / kBucket;
    if (when_bucket != now_bucket && when_bucket - now_bucket < 256) ++run.far;
    handles.push_back(k.schedule_at(when, [&fire, tag] { fire(tag); },
                                    orders[rng.uniform(0, 4)]));
  };
  fire = [&](int tag) {
    fired.emplace_back(k.now(), tag);
    if (tag < 4) {  // a sparse chain: one key, sometimes past the horizon
      if (k.now() < 5 * kHorizon) {
        at(k.now() + rng.uniform(1, kHorizon + kHorizon / 4), tag);
      }
    } else if (tag < 6) {  // a burst
      for (int i = 0, n = tag == 4 ? 300 : 160; i < n; ++i) {
        Time offset = rng.uniform(0, kHorizon + kHorizon / 2);
        if (rng.chance(0.3)) offset -= offset % 20000;  // same-instant ties
        at(k.now() + offset, next_tag++);
      }
    } else if (tag >= 100) {  // a burst key
      if (tag % 7 == 0) {
        at(k.now() + (tag % 3 == 0 ? 0 : rng.uniform(1, 3 * kBucket)), -tag);
      }
      if (tag % 11 == 0) {
        k.cancel(handles[static_cast<std::size_t>(tag * 13) % handles.size()]);
      }
    }
  };
  for (int chain = 0; chain < 4; ++chain) at(rng.uniform(0, 1000), chain);
  at(milliseconds(20), 4);
  at(milliseconds(50), 5);
  k.run_until(6 * kHorizon);
  for (auto& h : handles) k.cancel(h);  // the keys left past the horizon
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& [t, tag] : fired) {
    mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(tag));
  }
  mix(fired.size());
  mix(k.counters().executed);
  mix(k.counters().cancelled);
  run.hash = h;
  run.fired = fired.size();
  run.counters = k.counters();
  return run;
}

TEST(Kernel, GoldenEventOrderAcrossTheWheelGate) {
  const SwingRun run = depth_swing_workload();
  EXPECT_EQ(run.hash, 0x98303677a79f693dull);
  EXPECT_EQ(run.fired, 582u);
  // Deeper than every gate depth in 8..128, then shallower than all of them.
  EXPECT_GT(run.counters.peak_queue_depth, 128u);
  EXPECT_LT(run.counters.queue_depth, 8u);
  // Some far keys parked (under a deep heap), some went to the heap.
  EXPECT_GT(run.counters.wheel_scheduled, 0u);
  EXPECT_LT(run.counters.wheel_scheduled, run.far);
}

// --- EventHandle generation safety -------------------------------------------

TEST(Kernel, CancelAfterFireIsANoOp) {
  Kernel k;
  int fired = 0;
  auto h = k.schedule_at(100, [&] { ++fired; });
  k.run_until(200);
  EXPECT_EQ(fired, 1);
  k.cancel(h);  // handle went stale the moment the event fired
  k.cancel(h);
  EXPECT_EQ(k.counters().cancelled, 0u);
}

TEST(Kernel, DoubleCancelCountsOnce) {
  Kernel k;
  auto h = k.schedule_at(100, [] {});
  k.cancel(h);
  k.cancel(h);
  EXPECT_EQ(k.counters().cancelled, 1u);
  k.run_until(200);
  EXPECT_EQ(k.counters().executed, 0u);
}

TEST(Kernel, StaleHandleCannotCancelRecycledSlot) {
  Kernel k;
  int first = 0;
  int second = 0;
  auto h1 = k.schedule_at(100, [&] { ++first; });
  k.cancel(h1);  // frees the slot ...
  k.schedule_at(150, [&] { ++second; });  // ... which this event recycles
  k.cancel(h1);  // stale generation: must not touch the new occupant
  k.run_until(1000);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(k.counters().cancelled, 1u);
}

// --- Past-time scheduling policy ---------------------------------------------

// Time travel is a programming error: every schedule flavor refuses it with
// std::invalid_argument — no clamping, identical in every build type.
// Scheduling exactly AT now() is allowed and fires in (order, seq) position
// within the current instant.
TEST(Kernel, PastTimePolicyThrowsForEveryScheduleFlavor) {
  Kernel k;
  k.schedule_at(100, [] {});
  k.run_until(500);
  EXPECT_THROW(k.schedule_at(499, [] {}), std::invalid_argument);
  EXPECT_THROW(k.schedule_in(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(k.schedule_periodic(499, 10, [] {}), std::invalid_argument);
  EXPECT_THROW(k.schedule_periodic(500, 0, [] {}), std::invalid_argument);
  int fired = 0;
  k.schedule_at(500, [&] { ++fired; });  // "now" is fine
  k.run_until(501);
  EXPECT_EQ(fired, 1);
}

// --- Timer wheel and pool counters -------------------------------------------

// A far key (due in a later bucket, within the horizon) parks in the wheel
// only while the heap holds at least Kernel::kWheelMinHeap keys; into a
// shallower heap it goes straight to the heap. Either way it fires in order.
TEST(Kernel, WheelParksFarEventsAndFlushesInOrder) {
  Kernel k;
  std::vector<int> order;
  const Time bucket = Time{1} << 16;  // wheel bucket width in ns
  // Same bucket as now: straight to the heap, one key short of the gate.
  for (std::size_t i = 0; i + 1 < Kernel::kWheelMinHeap; ++i) {
    k.schedule_at(10, [&] { order.push_back(1); });
  }
  // A few buckets out, into a heap one key short of the gate: heap.
  k.schedule_at(3 * bucket + 1, [&] { order.push_back(3); });
  EXPECT_EQ(k.counters().wheel_scheduled, 0u);
  // The heap now holds kWheelMinHeap keys: the next far key parks ...
  k.schedule_at(3 * bucket, [&] { order.push_back(2); });
  EXPECT_EQ(k.counters().wheel_scheduled, 1u);
  // ... but beyond the wheel horizon a key overflows to the heap.
  k.schedule_at(400 * bucket, [&] { order.push_back(4); });
  EXPECT_EQ(k.counters().wheel_scheduled, 1u);
  EXPECT_EQ(k.counters().queue_depth, Kernel::kWheelMinHeap + 2);
  k.run_until(400 * bucket + 1);
  std::vector<int> want(Kernel::kWheelMinHeap - 1, 1);
  want.insert(want.end(), {2, 3, 4});
  EXPECT_EQ(order, want);
  EXPECT_EQ(k.counters().wheel_flushed, 1u);
  EXPECT_EQ(k.counters().queue_depth, 0u);
}

// A parked key and a heap key due at the same instant fire in (order, seq)
// order: the wheel flushes every key due at or before the heap front.
TEST(Kernel, ParkedKeyTyingWithTheHeapFrontKeepsItsOrder) {
  Kernel k;
  std::vector<int> order;
  const Time due = 3 * (Time{1} << 16);  // three wheel buckets out
  for (std::size_t i = 0; i < Kernel::kWheelMinHeap; ++i) {
    k.schedule_at(10, [] {});
  }
  // Parks: the heap holds kWheelMinHeap keys.
  k.schedule_at(due, [&] { order.push_back(1); }, EventOrder::kHardware);
  // Scheduled into the then empty heap, at the same instant.
  k.schedule_at(20, [&] {
    k.schedule_at(due, [&] { order.push_back(2); }, EventOrder::kObserver);
  });
  k.run_until(due);
  EXPECT_EQ(k.counters().wheel_scheduled, 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, PoolSlotsAreRecycledNotGrown) {
  Kernel k;
  std::vector<EventHandle> hs;
  hs.reserve(64);
  for (int i = 0; i < 64; ++i) hs.push_back(k.schedule_at(i + 1, [] {}));
  EXPECT_EQ(k.counters().pool_slots, 64u);
  for (auto& h : hs) k.cancel(h);
  // A fresh batch must reuse the freed slots, not extend the pool.
  for (int i = 0; i < 64; ++i) k.schedule_at(i + 100, [] {});
  EXPECT_EQ(k.counters().pool_slots, 64u);
  k.run_until(1000);
  EXPECT_EQ(k.counters().executed, 64u);
}

// --- Trace ID listeners -------------------------------------------------------

TEST(Trace, IdListenersGetInternedIdsValueAndDetail) {
  Trace t;
  const TraceId cat = t.intern_category("cat");
  const TraceId subj = t.intern_subject("s");
  TraceEvent seen{};
  std::string detail;
  t.subscribe_ids([&](const TraceEvent& e) {
    seen = e;
    detail = std::string(e.detail);
  });
  t.emit(7, "cat", "s", 42, "d");
  EXPECT_EQ(seen.when, 7);
  EXPECT_EQ(seen.category_id, cat);
  EXPECT_EQ(seen.subject_id, subj);
  EXPECT_EQ(seen.value, 42);
  EXPECT_EQ(detail, "d");
}

TEST(Trace, IdEmitMatchesStringEmit) {
  // Emitting under pre-interned IDs must be indistinguishable from the
  // string overload: same record strings, same listener IDs, same counts.
  Trace by_id;
  Trace by_name;
  const TraceId cat = by_id.intern_category("cat");
  const TraceId subj = by_id.intern_subject("s");
  std::vector<TraceEvent> id_events;
  std::vector<TraceEvent> name_events;
  by_id.subscribe_ids([&](const TraceEvent& e) { id_events.push_back(e); });
  by_name.subscribe_ids(
      [&](const TraceEvent& e) { name_events.push_back(e); });
  by_id.emit(3, cat, subj, 9, "d");
  by_id.emit(4, cat, subj);
  by_name.emit(3, "cat", "s", 9, "d");
  by_name.emit(4, "cat", "s");
  ASSERT_EQ(by_id.records().size(), 2u);
  ASSERT_EQ(id_events.size(), 2u);
  ASSERT_EQ(name_events.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& a = by_id.records()[i];
    const auto& b = by_name.records()[i];
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.subject, b.subject);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(id_events[i].category_id, cat);
    EXPECT_EQ(id_events[i].subject_id, subj);
    EXPECT_EQ(name_events[i].category_id, by_name.category_id("cat"));
    EXPECT_EQ(name_events[i].subject_id, by_name.subject_id("s"));
  }
  EXPECT_EQ(by_id.count("cat"), 2u);
  EXPECT_EQ(by_id.count(cat), 2u);
  EXPECT_EQ(records_of(by_id, "cat", "s"), 2u);
  EXPECT_TRUE(counts_match_records(by_id));
}

TEST(Trace, IdListenersWorkWithoutRetentionOrStringListeners) {
  // The rv configuration: retention off, no TraceRecord listeners — emits
  // must reach ID listeners without materializing any std::string.
  Trace t;
  t.enable_retention(false);
  std::size_t n = 0;
  t.subscribe_ids([&](const TraceEvent&) { ++n; });
  for (int i = 0; i < 5; ++i) t.emit(i, "cat", "s");
  EXPECT_EQ(n, 5u);
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.count("cat"), 5u);
}

}  // namespace
