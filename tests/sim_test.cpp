// Unit tests for the discrete-event kernel: ordering, determinism, timers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace coop::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesEventsInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(msec(30), [&] { order.push_back(3); });
  sim.schedule_at(msec(10), [&] { order.push_back(1); });
  sim.schedule_at(msec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulator, BreaksTimestampTiesFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired = -1;
  sim.schedule_at(msec(10), [&] {
    sim.schedule_after(msec(5), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, msec(15));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule_at(msec(10), [] {});
  sim.run();
  TimePoint fired = -1;
  sim.schedule_at(msec(1), [&] { fired = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired, msec(10));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(msec(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelReturnsFalseForUnknownOrDoubleCancel) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(1), [] {});
  sim.run();
  // The event already executed; cancelling its id must fail and must not
  // poison the pending() accounting.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PendingNeverUnderflowsAfterStaleCancels) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(sim.schedule_at(msec(i + 1), [] {}));
  sim.run();
  for (const EventId id : ids) EXPECT_FALSE(sim.cancel(id));
  // With the old tombstone accounting these stale cancels made
  // pending() wrap around to ~2^64.
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(sim.now() + msec(1), [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PendingExactWithLazyCancelledEntriesInQueue) {
  Simulator sim;
  const EventId a = sim.schedule_at(msec(10), [] {});
  sim.schedule_at(msec(20), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  // The cancelled entry still sits in the queue (lazy deletion) but must
  // not be counted.
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // double cancel
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PeriodicStartStopCyclesKeepPendingExact) {
  // Regression for the cancel-accounting bug: 10k start/stop cycles of a
  // periodic timer used to leave the kernel's pending() permanently
  // skewed (stale tombstones / size_t underflow).
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, msec(10), [&] { ++ticks; });
  for (int i = 0; i < 10000; ++i) {
    timer.start();
    if (i % 2 == 0) sim.run_for(msec(15));  // let one tick fire
    timer.stop();
    EXPECT_EQ(sim.pending(), 0u) << "cycle " << i;
  }
  EXPECT_EQ(ticks, 5000);
  sim.schedule_after(msec(1), [] {});
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(Simulator, StepHookSeesEveryExecutedEvent) {
  Simulator sim;
  struct HookState {
    Simulator* sim;
    std::vector<EventId> hooked;
    std::vector<TimePoint> times;
  } state{&sim, {}, {}};
  // The hook is a raw fn ptr + context (hot-seam discipline): no captures.
  sim.set_step_hook(
      [](void* ctx, std::uint32_t shard, EventId id, TimePoint when,
         std::size_t pending) {
        auto* s = static_cast<HookState*>(ctx);
        EXPECT_EQ(shard, 0u);  // a lone Simulator reports shard 0
        s->hooked.push_back(id);
        s->times.push_back(when);
        EXPECT_EQ(pending, s->sim->pending());
      },
      &state);
  std::vector<EventId>& hooked = state.hooked;
  std::vector<TimePoint>& times = state.times;
  const EventId a = sim.schedule_at(msec(1), [] {});
  const EventId b = sim.schedule_at(msec(2), [] {});
  const EventId c = sim.schedule_at(msec(3), [] {});
  sim.cancel(b);  // cancelled events must not reach the hook
  sim.run();
  EXPECT_EQ(hooked, (std::vector<EventId>{a, c}));
  EXPECT_EQ(times, (std::vector<TimePoint>{msec(1), msec(3)}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(msec(5), [&] { ++fired; });
  sim.schedule_at(msec(10), [&] { ++fired; });
  sim.schedule_at(msec(15), [&] { ++fired; });
  sim.run_until(msec(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), msec(10));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunForAdvancesRelativeToNow) {
  Simulator sim;
  sim.run_until(msec(100));
  int fired = 0;
  sim.schedule_after(msec(50), [&] { ++fired; });
  sim.schedule_after(msec(150), [&] { ++fired; });
  sim.run_for(msec(60));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), msec(160));
}

TEST(Simulator, RunHonoursMaxEvents) {
  Simulator sim;
  // A self-perpetuating event chain would never terminate without the cap.
  std::function<void()> chain = [&] { sim.schedule_after(1, chain); };
  sim.schedule_after(1, chain);
  const std::size_t n = sim.run(1000);
  EXPECT_EQ(n, 1000u);
}

TEST(Simulator, EventsProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  auto trace = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(
          static_cast<Duration>(sim.rng().uniform_int(1, 1000)),
          [&times, &sim] { times.push_back(sim.now()); });
    }
    sim.run();
    return times;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(PeriodicTimer, TicksAtFixedPeriod) {
  Simulator sim;
  std::vector<TimePoint> ticks;
  PeriodicTimer timer(sim, msec(10), [&] { ticks.push_back(sim.now()); });
  timer.start();
  sim.run_until(msec(35));
  EXPECT_EQ(ticks, (std::vector<TimePoint>{msec(10), msec(20), msec(30)}));
}

TEST(PeriodicTimer, StopCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, msec(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(msec(15));
  timer.stop();
  sim.run_until(msec(100));
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, CanStopItselfFromCallback) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, msec(10), [&] {
    ++ticks;
    // stop() from inside on_tick must not re-arm.
  });
  PeriodicTimer* tp = &timer;
  PeriodicTimer outer(sim, msec(10), [&, tp] {
    ++ticks;
    tp->stop();
  });
  (void)outer;
  timer.start();
  sim.run_until(msec(50));
  EXPECT_GE(ticks, 1);
}

TEST(PeriodicTimer, InitialDelayOverride) {
  Simulator sim;
  std::vector<TimePoint> ticks;
  PeriodicTimer timer(sim, msec(10), [&] { ticks.push_back(sim.now()); });
  timer.start(msec(3));
  sim.run_until(msec(25));
  EXPECT_EQ(ticks, (std::vector<TimePoint>{msec(3), msec(13), msec(23)}));
}

TEST(PeriodicTimer, SetPeriodAppliesWhenTimerNextRearms) {
  Simulator sim;
  std::vector<TimePoint> ticks;
  PeriodicTimer timer(sim, msec(10), [&] { ticks.push_back(sim.now()); });
  timer.start();
  sim.run_until(msec(10));
  // The tick at 20ms is already armed with the old period; the new period
  // governs every re-arm after it fires.
  timer.set_period(msec(20));
  sim.run_until(msec(60));
  EXPECT_EQ(ticks, (std::vector<TimePoint>{msec(10), msec(20), msec(40),
                                           msec(60)}));
}

TEST(Rng, DeterministicStream) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // degenerate: returns lo
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(3);
  double acc = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(10.0);
  EXPECT_NEAR(acc / n, 10.0, 0.3);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(4);
  double sum = 0, sum2 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(6);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[rng.zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
  for (int c : counts) EXPECT_GE(c, 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork();
  bool differs = false;
  for (int i = 0; i < 50; ++i)
    if (parent.next() != child.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(PeriodicTimer, SeededJitterIsDeterministicAndBounded) {
  auto run = [](std::uint64_t seed) {
    Simulator s(seed);
    std::vector<TimePoint> ticks;
    PeriodicTimer t(s, msec(100), [&] { ticks.push_back(s.now()); });
    t.set_jitter(0.2, &s.rng());
    t.start();
    s.run_until(sec(2));
    return ticks;
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  // Same seed, same schedule — jitter draws only from the seeded rng.
  EXPECT_EQ(a, b);
  // Different seed, different phase.
  EXPECT_NE(a, c);
  // Every gap stays inside the +/-20% band around the nominal period.
  ASSERT_GE(a.size(), 2u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const Duration gap = a[i] - a[i - 1];
    EXPECT_GE(gap, msec(80));
    EXPECT_LE(gap, msec(120));
  }
  bool uneven = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] - a[i - 1] != msec(100)) uneven = true;
  }
  EXPECT_TRUE(uneven);  // the jitter actually moved the ticks
}

TEST(PeriodicTimer, ZeroJitterKeepsLockstep) {
  Simulator s(3);
  std::vector<TimePoint> ticks;
  PeriodicTimer t(s, msec(100), [&] { ticks.push_back(s.now()); });
  t.start();
  s.run_until(msec(500));
  EXPECT_EQ(ticks, (std::vector<TimePoint>{msec(100), msec(200), msec(300),
                                           msec(400), msec(500)}));
}

// Regression: scheduling a "never" sentinel delay used to wrap the sum
// now + delay negative, trip the past-event clamp, and fire the event
// immediately.  The saturating add parks it at kTimeMax instead.
TEST(Simulator, HugeDelaySaturatesInsteadOfFiringImmediately) {
  Simulator sim;
  sim.schedule_at(msec(1), [] {});
  sim.run();  // move the clock off zero so the old wrap was negative
  ASSERT_EQ(sim.now(), msec(1));
  bool fired = false;
  sim.schedule_after(kTimeMax, [&] { fired = true; });
  sim.run_until(sec(3600));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 1u);
  // The event is real, not lost: running to the end of time fires it.
  sim.run_until(kTimeMax);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunForSaturatesAtEndOfTime) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(msec(5), [&] { ++fired; });
  sim.run_for(kTimeMax);  // must not wrap into the past and run nothing
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kTimeMax);
}

// Regression: a non-positive period used to re-arm with delay 0, spinning
// an unbounded same-timestamp event storm run() could never get past.
TEST(PeriodicTimer, NonPositivePeriodDegradesToOneMicrosecond) {
  Simulator s;
  std::uint64_t ticks = 0;
  PeriodicTimer t(s, 0, [&] { ++ticks; });
  t.start();
  s.run_until(usec(100));
  EXPECT_EQ(ticks, 100u);  // one per microsecond, clock always advancing
  EXPECT_EQ(s.now(), usec(100));
}

TEST(PeriodicTimer, SetPeriodZeroMidFlightStillAdvancesClock) {
  Simulator s;
  std::uint64_t ticks = 0;
  PeriodicTimer t(s, msec(1), [&] { ++ticks; });
  t.start();
  s.run_until(msec(2));
  EXPECT_EQ(ticks, 2u);
  t.set_period(-5);
  t.start();  // re-arm now: the non-positive period clamps to 1us per tick
  s.run_until(msec(2) + usec(50));
  EXPECT_EQ(ticks, 2u + 50u);
  // The event cap is a backstop, not the terminator: the run above ended
  // because virtual time reached the bound.
  EXPECT_EQ(s.now(), msec(2) + usec(50));
}

TEST(PeriodicTimer, JitterNeverRoundsDelayToZero) {
  Simulator s(11);
  std::uint64_t ticks = 0;
  PeriodicTimer t(s, usec(1), [&] { ++ticks; });
  t.set_jitter(0.9, &s.rng());  // scale can reach 0.1 => floor at 1us
  t.start();
  s.run_until(usec(500));
  EXPECT_LE(ticks, 500u);  // impossible unless every gap is >= 1us
  EXPECT_GT(ticks, 0u);
}

// Regression: re-inserting an already-live id used to double-increment
// size(), skewing pending() forever.
TEST(LiveBits, InsertIsIdempotent) {
  LiveBits bits;
  EXPECT_TRUE(bits.insert(7));
  EXPECT_EQ(bits.size(), 1u);
  EXPECT_FALSE(bits.insert(7));  // no-op, reported as such
  EXPECT_EQ(bits.size(), 1u);
  EXPECT_TRUE(bits.erase(7));
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_FALSE(bits.erase(7));  // really gone after one erase
  EXPECT_TRUE(bits.insert(7));  // and re-insertable afterwards
  EXPECT_EQ(bits.size(), 1u);
}

}  // namespace
}  // namespace coop::sim
