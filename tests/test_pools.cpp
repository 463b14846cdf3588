// Pooled storage of the request path (sim/slab.hpp, sim/fanin.hpp), the
// byte-relocated closures that carry the client's call references
// (sim/func.hpp), the event queue's bounded bucket retention, the cache
// range sets' give-back of storage once their pieces coalesce, and the
// teardown guarantee slab
// ownership buys: records still in flight when a Testbed dies are freed with
// their owners, never leaked. Under the ASan CI leg (detect_leaks=1) a leak
// in TestbedTeardown fails the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/rangeset.hpp"
#include "harness/testbed.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fanin.hpp"
#include "sim/func.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/slab.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

// ---- SlotFifo ---------------------------------------------------------------

TEST(SimSlotFifo, OrderHoldsAcrossBlockBoundaries) {
  sim::SlotFifo<int> f;
  int next_in = 0, next_out = 0;
  // The head and the tail cross block boundaries at different times; the
  // used-up head block comes back as the tail's next block.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 23; ++i) f.push_back(next_in++);
    for (int i = 0; i < 19; ++i) EXPECT_EQ(f.pop_front(), next_out++);
  }
  EXPECT_EQ(f.size(), static_cast<std::size_t>(next_in - next_out));
  while (!f.empty()) EXPECT_EQ(f.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SimSlotFifo, GrowsWhileTheHeadIsMidBlock) {
  sim::SlotFifo<int> f;
  for (int i = 0; i < 40; ++i) f.push_back(i);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(f.pop_front(), i);
  const std::size_t before = f.capacity();
  for (int i = 40; i < 400; ++i) f.push_back(i);  // new blocks behind the head
  EXPECT_GT(f.capacity(), before);
  EXPECT_EQ(f.front(), 20);
  for (int i = 20; i < 400; ++i) EXPECT_EQ(f.pop_front(), i);
  EXPECT_TRUE(f.empty());
}

TEST(SimSlotFifo, DrainReleasesBurstCapacity) {
  sim::SlotFifo<std::uint64_t> f;
  for (std::uint64_t i = 0; i < 10000; ++i) f.push_back(i);
  EXPECT_GE(f.capacity(), 10000u);
  for (std::uint64_t i = 0; i < 5000; ++i) f.pop_front();
  EXPECT_LE(f.capacity(), 5000u + sim::kRetainedCapacity);  // freed as it drains
  for (std::uint64_t i = 5000; i < 10000; ++i) EXPECT_EQ(f.pop_front(), i);
  EXPECT_LE(f.capacity(), sim::kRetainedCapacity);
  // Traffic that fits the retained blocks cycles through them: after one
  // round, the storage neither grows nor shrinks.
  std::size_t kept = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 40; ++i) f.push_back(i);
    for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(f.pop_front(), i);
    if (round == 0) kept = f.capacity();
    EXPECT_EQ(f.capacity(), kept);
  }
  EXPECT_LE(kept, sim::kRetainedCapacity);
}

// The global cache's write-behind pattern: many ranks write 40-byte cells of
// one chunk, which fragments into over a thousand ranges and then coalesces
// into one. The set must not keep the fragmented peak's storage.
TEST(CacheRangeSet, CoalescedFragmentsReleaseCapacity) {
  constexpr std::uint64_t kPieces = 1024;
  constexpr std::uint64_t kCell = 40;
  const auto fragment = [&](cache::RangeSet& rs) {
    for (std::uint64_t i = 0; i < kPieces; ++i) rs.add(2 * i * kCell, (2 * i + 1) * kCell);
    ASSERT_EQ(rs.ranges().size(), kPieces);
  };
  cache::RangeSet rs;
  fragment(rs);
  EXPECT_GE(rs.ranges().capacity(), kPieces);
  for (std::uint64_t i = 0; i < kPieces; ++i) {
    rs.add((2 * i + 1) * kCell, (2 * i + 2) * kCell);
    // Filling gap i bridges piece i with piece i + 1 (the last gap just extends).
    EXPECT_EQ(rs.ranges().size(), std::max<std::uint64_t>(1, kPieces - 1 - i));
  }
  ASSERT_EQ(rs.ranges().size(), 1u);
  EXPECT_EQ(rs.total_bytes(), 2 * kPieces * kCell);
  EXPECT_LE(rs.ranges().capacity(), cache::kRangeSetFloor);

  // A set emptied by remove keeps no storage, nor does a cleared one.
  EXPECT_EQ(rs.remove(0, 2 * kPieces * kCell), 2 * kPieces * kCell);
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.ranges().capacity(), 0u);
  fragment(rs);
  EXPECT_EQ(rs.remove(0, 2 * kPieces * kCell), kPieces * kCell);
  EXPECT_EQ(rs.ranges().capacity(), 0u);
  fragment(rs);
  rs.clear();
  EXPECT_EQ(rs.total_bytes(), 0u);
  EXPECT_EQ(rs.ranges().capacity(), 0u);
}

TEST(FifoResource, CompletionThatResubmitsQueuesBehindWaitingJobs) {
  sim::Engine eng;
  sim::FifoResource res(eng);
  std::vector<int> order;
  res.submit(10, [&] {
    order.push_back(1);
    // Re-enters submit while the resource is still finishing this job.
    res.submit(5, [&] { order.push_back(3); });
  });
  res.submit(10, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 25);
  EXPECT_EQ(res.total_jobs(), 3u);
  EXPECT_EQ(res.busy_time(), 25);
  EXPECT_FALSE(res.busy());
  EXPECT_EQ(res.queue_length(), 0u);
}

// ---- Slab and FanInPool -------------------------------------------------------

TEST(SimSlab, RecyclesSlotsWithStableAddressesAndKeptStorage) {
  sim::Slab<std::vector<int>> slab;
  std::vector<std::uint32_t> ids;
  std::vector<const std::vector<int>*> where;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(slab.acquire());
    slab.at(ids.back()).assign(10, i);
    where.push_back(&slab.at(ids.back()));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(&slab.at(ids[i]), where[i]);  // chunks never move
    EXPECT_EQ(slab.at(ids[i]).front(), i);
  }
  EXPECT_EQ(slab.live(), 100u);
  const std::uint32_t gen = slab.generation(ids[7]);
  slab.release(ids[7]);
  EXPECT_EQ(slab.generation(ids[7]), gen + 1);
  EXPECT_EQ(slab.live(), 99u);
  EXPECT_EQ(slab.acquire(), ids[7]);           // LIFO reuse
  EXPECT_GE(slab.at(ids[7]).capacity(), 10u);  // storage kept for the next user
  EXPECT_EQ(slab.slots(), 100u);
  EXPECT_EQ(slab.take(slab.park(std::vector<int>{4, 2})), (std::vector<int>{4, 2}));
}

TEST(SimSlab, DestroysRecordsStillLive) {
  auto token = std::make_shared<int>(0);
  {
    sim::Slab<std::shared_ptr<int>> slab;
    for (int i = 0; i < 50; ++i) slab.park(token);
    EXPECT_EQ(token.use_count(), 51);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimFanInPool, LastBranchReleasesItsRecordBeforeFiring) {
  sim::FanInPool<sim::UniqueFunction> pool;
  int fired = 0;
  std::uint32_t inner = ~0u;
  const std::uint32_t id = pool.open(2, [&] {
    ++fired;
    // The continuation may open a new fan-in in the same pool.
    inner = pool.open(1, [&] { ++fired; });
  });
  pool.complete(id);
  EXPECT_EQ(fired, 0);
  pool.complete(id);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(inner, id);  // the just-released record was reused
  pool.complete(inner);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SimFanInPool, OpenFanInsDieWithThePool) {
  auto token = std::make_shared<int>(0);
  {
    sim::FanInPool<sim::UniqueFunction> pool;
    for (int i = 0; i < 10; ++i) pool.open(3, [token] {});
    EXPECT_EQ(token.use_count(), 11);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---- Event queue retention ----------------------------------------------------

// ---- UniqueFn ---------------------------------------------------------------

/// Counts live handles, like the client's counted call reference.
struct CountedHandle {
  int* live;
  explicit CountedHandle(int* l) : live(l) { ++*live; }
  CountedHandle(CountedHandle&& o) noexcept : live(o.live) { o.live = nullptr; }
  CountedHandle(const CountedHandle&) = delete;
  ~CountedHandle() {
    if (live != nullptr) --*live;
  }
};

TEST(SimUniqueFn, RelocatableClosureIsReleasedExactlyOnce) {
  int live = 0, calls = 0;
  {
    sim::UniqueFunction a =
        sim::relocatable_fn([h = CountedHandle(&live), &calls] { ++calls; });
    EXPECT_EQ(live, 1);
    // Moves hand the bytes over without destroying the source.
    sim::UniqueFunction b = std::move(a);
    sim::UniqueFunction c;
    c = std::move(b);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    EXPECT_EQ(live, 1);
    c();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
  // Destroyed unfired (a dropped message) and reset explicitly.
  sim::UniqueFunction d = sim::relocatable_fn([h = CountedHandle(&live)] {});
  sim::UniqueFunction e = sim::relocatable_fn([h = CountedHandle(&live)] {});
  EXPECT_EQ(live, 2);
  d.reset();
  EXPECT_EQ(live, 1);
  e = std::move(d);  // assigning an empty function destroys e's closure
  EXPECT_EQ(live, 0);
}

TEST(EventQueueRetention, BurstDrainLeavesBucketsAtTheCap) {
  std::vector<std::uint32_t> gens;
  sim::LadderQueue q(&gens);
  sim::Rng rng(5);
  // 100k keys over 20 s: every wheel level and the tail see buckets of
  // hundreds to thousands of keys.
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    gens.push_back(1);
    const auto t = static_cast<sim::Time>(rng.uniform(20'000'000'000ull));
    q.push(sim::EventKey{t, i + 1, i, 1});
  }
  sim::EventKey k{};
  sim::Time last = 0;
  std::size_t popped = 0;
  while (q.pop_min_live(k)) {
    ASSERT_GE(k.t, last);
    last = k.t;
    ++popped;
  }
  EXPECT_EQ(popped, 100'000u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_LE(q.idle_capacity(), sim::kRetainedCapacity);
}

// ---- Teardown -------------------------------------------------------------------

TEST(TestbedTeardown, MidRunDestructionLeaksNothing) {
  enum class Variant { kVanilla, kCollective, kDualPar };
  for (Variant v : {Variant::kVanilla, Variant::kCollective, Variant::kDualPar}) {
    SCOPED_TRACE(static_cast<int>(v));
    // A Testbed destroyed halfway through its run, with network transits,
    // server requests, RAID splits, client and cache fan-ins and piece walks
    // in flight. Their pools die with their owners.
    auto populate = [v](harness::Testbed& tb) {
      wl::BtioConfig c;
      c.total_bytes = (6800ull << 20) / 16 / 16 / 64;
      c.write_steps = 10;
      c.collective = (v == Variant::kCollective);
      c.file = tb.create_file("btio", c.total_bytes * 2);
      mpi::IoDriver* drv = &tb.vanilla();
      if (v == Variant::kCollective) drv = &tb.collective();
      if (v == Variant::kDualPar) drv = &tb.dualpar();
      tb.add_job("btio", 64, *drv, [c](std::uint32_t) { return wl::make_btio(c); },
                 v == Variant::kDualPar ? dualpar::Policy::kForcedDataDriven
                                        : dualpar::Policy::kForcedNormal);
    };
    std::uint64_t events = 0;
    {
      harness::Testbed whole;
      populate(whole);
      events = whole.run();
    }
    harness::Testbed tb;
    populate(tb);
    // The event cap stops the run with the job unfinished.
    EXPECT_THROW(tb.run(events / 2), std::runtime_error);
    EXPECT_FALSE(tb.engine().empty());
  }
}

}  // namespace
}  // namespace dpar
