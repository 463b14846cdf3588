// Unit tests for the discrete-event engine, RNG and stats primitives.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace dpar::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(msec(30), [&] { order.push_back(3); });
  eng.at(msec(10), [&] { order.push_back(1); });
  eng.at(msec(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), msec(30));
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) eng.at(msec(5), [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, AfterSchedulesRelativeToNow) {
  Engine eng;
  Time fired = -1;
  eng.at(msec(10), [&] {
    eng.after(msec(5), [&] { fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired, msec(15));
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  EventId id = eng.at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(eng.cancel(id));  // double-cancel reports failure
}

TEST(Engine, CancelOfEmptyIdIsNoop) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(EventId{}));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.at(msec(10), [] {});
  eng.run();
  EXPECT_THROW(eng.at(msec(5), [] {}), std::invalid_argument);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine eng;
  eng.run_until(secs(2));
  EXPECT_EQ(eng.now(), secs(2));
}

TEST(Engine, RunUntilFiresOnlyDueEvents) {
  Engine eng;
  int fired = 0;
  eng.at(msec(10), [&] { ++fired; });
  eng.at(msec(20), [&] { ++fired; });
  eng.at(msec(30), [&] { ++fired; });
  eng.run_until(msec(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), msec(20));
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.after(usec(1), chain);
  };
  eng.after(usec(1), chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), usec(100));
}

TEST(Engine, EmptyReflectsCancelledEvents) {
  Engine eng;
  EventId id = eng.at(msec(1), [] {});
  EXPECT_FALSE(eng.empty());
  eng.cancel(id);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, AfterOverflowThrowsPreciseError) {
  Engine eng;
  eng.at(secs(1), [] {});
  eng.run();  // now() > 0, so max delay must overflow
  EXPECT_THROW(eng.after(std::numeric_limits<Time>::max(), [] {}),
               std::overflow_error);
  // The engine stays usable after the rejected schedule.
  bool fired = false;
  eng.after(msec(1), [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelReclaimsSlotAndMemoryImmediately) {
  // Regression: cancelling far-future events must reclaim their bookkeeping
  // promptly — the seed engine grew its cancelled_ set without bound.
  Engine eng;
  for (int i = 0; i < 100'000; ++i) {
    EventId id = eng.at(secs(1'000'000) + i, [] {});
    ASSERT_TRUE(eng.cancel(id));
  }
  // One live slot at a time -> the slab never grows past a single slot...
  EXPECT_EQ(eng.slab_slots(), 1u);
  // ...and heap compaction keeps stale keys bounded (not 100k of them).
  EXPECT_LT(eng.queue_depth(), 256u);
  EXPECT_TRUE(eng.empty());
}

TEST(Engine, StaleIdNeverCancelsReusedSlot) {
  Engine eng;
  EventId id1 = eng.at(secs(100), [] {});
  ASSERT_TRUE(eng.cancel(id1));
  // The freed slot is reused by the next event; the old id must not alias it.
  bool fired = false;
  EventId id2 = eng.at(secs(200), [&] { fired = true; });
  EXPECT_EQ(id1.slot, id2.slot);
  EXPECT_FALSE(eng.cancel(id1));
  eng.run();
  EXPECT_TRUE(fired);
  // Both ids are stale now.
  EXPECT_FALSE(eng.cancel(id2));
}

TEST(Engine, FiredEventFreesItsSlotForReuse) {
  Engine eng;
  EventId id1 = eng.at(msec(1), [] {});
  eng.run();
  EventId id2 = eng.at(msec(2), [] {});
  EXPECT_EQ(eng.slab_slots(), 1u);
  EXPECT_EQ(id1.slot, id2.slot);
  EXPECT_NE(id1.gen, id2.gen);
  eng.run();
}

TEST(Engine, LargeCapturesFallBackToHeapCorrectly) {
  Engine eng;
  std::array<std::uint64_t, 16> big{};  // 128 bytes, past the inline buffer
  big.fill(7);
  std::uint64_t sum = 0;
  eng.at(msec(1), [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  eng.run();
  EXPECT_EQ(sum, 16u * 7u);
}

TEST(Engine, CancelHeavyChurnStaysDeterministic) {
  // Interleaved schedule/cancel/fire with slot reuse must preserve the
  // (time, scheduling-order) firing contract.
  Engine eng;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(eng.at(msec(10 + i % 3), [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 100; i += 2) eng.cancel(ids[static_cast<std::size_t>(i)]);
  eng.run();
  ASSERT_EQ(order.size(), 50u);
  // Odd indices only, grouped by time (10+i%3), ascending seq within a group.
  std::vector<int> expect;
  for (int t = 0; t < 3; ++t)
    for (int i = 1; i < 100; i += 2)
      if (i % 3 == t) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(FifoResource, ServesSeriallyInOrder) {
  Engine eng;
  FifoResource res(eng);
  std::vector<std::pair<int, Time>> done;
  res.submit(msec(10), [&] { done.emplace_back(1, eng.now()); });
  res.submit(msec(5), [&] { done.emplace_back(2, eng.now()); });
  res.submit(msec(1), [&] { done.emplace_back(3, eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], std::make_pair(1, msec(10)));
  EXPECT_EQ(done[1], std::make_pair(2, msec(15)));
  EXPECT_EQ(done[2], std::make_pair(3, msec(16)));
  EXPECT_EQ(res.busy_time(), msec(16));
}

TEST(FifoResource, AcceptsSubmissionsWhileBusy) {
  Engine eng;
  FifoResource res(eng);
  Time second_done = 0;
  res.submit(msec(10), [&] {
    res.submit(msec(10), [&] { second_done = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(second_done, msec(20));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(r.uniform(0), 0u);
}

TEST(Rng, UniformBetweenInclusive) {
  Rng r(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo_seen |= (v == 3);
    hi_seen |= (v == 5);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Stats, RunningStatMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EwmaConverges) {
  Ewma e(0.5);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(Stats, SlotSamplerReportsCompletedSlot) {
  SlotSampler s(msec(100));
  s.add(msec(10), 4.0);
  s.add(msec(50), 6.0);
  // Still inside slot 0: last completed slot is empty.
  EXPECT_DOUBLE_EQ(s.last_slot_mean(msec(60)), 0.0);
  // Slot 1: slot 0's mean becomes visible.
  EXPECT_DOUBLE_EQ(s.last_slot_mean(msec(110)), 5.0);
  EXPECT_EQ(s.last_slot_count(msec(110)), 2u);
  // A long silent gap clears the reading.
  EXPECT_DOUBLE_EQ(s.last_slot_mean(msec(450)), 0.0);
}

TEST(Stats, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log-bucketed: percentiles are bucket upper bounds (powers of two).
  EXPECT_LE(h.percentile(0.5), 1024.0);
  EXPECT_GE(h.percentile(0.5), 256.0);
  EXPECT_GE(h.percentile(0.99), h.percentile(0.5));
  EXPECT_GE(h.percentile(1.0), 512.0);
}

TEST(Stats, HistogramEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.add(0.5);  // below the first bucket boundary
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  h.add(1e30);  // clamped into the last bucket
  EXPECT_GT(h.percentile(1.0), 1e15);
}

TEST(Stats, HistogramBimodalSeparation) {
  // Mimics DualPar's latency shape: many tiny values, few huge ones.
  Histogram h;
  for (int i = 0; i < 990; ++i) h.add(20.0);
  for (int i = 0; i < 10; ++i) h.add(200'000.0);
  EXPECT_LE(h.percentile(0.5), 32.0);
  EXPECT_GE(h.percentile(0.995), 100'000.0);
}

TEST(Rng, ContentHashIsDeterministicAndSpread) {
  EXPECT_EQ(content_hash(1, 100), content_hash(1, 100));
  EXPECT_NE(content_hash(1, 100), content_hash(1, 101));
  EXPECT_NE(content_hash(1, 100), content_hash(2, 100));
}

// ---- Batched events ----

TEST(EngineBatch, AtAllFiresInOrderAsOneEvent) {
  Engine eng;
  std::vector<int> order;
  std::vector<Engine::Callback> cbs;
  for (int i = 0; i < 4; ++i) cbs.emplace_back([&order, i] { order.push_back(i); });
  const EventId id = eng.after_all(msec(1), std::move(cbs));
  EXPECT_TRUE(static_cast<bool>(id));
  // Scheduled after the batch at the same instant: must fire after all of it.
  eng.at(msec(1), [&order] { order.push_back(99); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 99}));
  EXPECT_EQ(eng.events_fired(), 2u);  // the whole batch was one heap entry
}

TEST(EngineBatch, EmptyBatchIsNoEventAndCancellable) {
  Engine eng;
  EXPECT_FALSE(static_cast<bool>(eng.at_all(msec(1), {})));
  std::vector<Engine::Callback> cbs;
  cbs.emplace_back([] { FAIL() << "cancelled batch fired"; });
  cbs.emplace_back([] { FAIL() << "cancelled batch fired"; });
  const EventId id = eng.after_all(msec(1), std::move(cbs));
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_EQ(eng.events_fired(), 0u);
}

}  // namespace
}  // namespace dpar::sim
