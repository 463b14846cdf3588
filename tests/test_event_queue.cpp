// Differential tests for the engine's ladder queue (sim/event_queue.hpp):
// it is driven op-for-op against the frozen heap oracle
// (tests/oracles/heap_queue.hpp) under randomized schedule/cancel/drain
// mixes, and a whole sim::Engine run is compared with the same scenario on a
// minimal engine loop over the heap. Under DPAR_CHECK_INVARIANTS the
// bucket-monotonicity invariant and the heap order are death-tested through
// the queues' corruption hooks.
#include <gtest/gtest.h>

#include <vector>

#include "oracles/heap_queue.hpp"
#include "oracles/key_driver.hpp"
#include "sim/debug.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/func.hpp"
#include "sim/rng.hpp"

namespace dpar {
namespace {

using sim::Engine;
using sim::EventKey;
using sim::HeapQueue;
using sim::KeyDriver;
using sim::LadderQueue;
using sim::Time;

// ---- direct queue differential ------------------------------------------

/// The ladder and the heap oracle, each behind its own KeyDriver and fed
/// the same push/cancel/pop stream, so their slots and generations stay in
/// lockstep. Every observable (next_time, pop order, live counts) must agree
/// exactly.
struct QueuePair {
  KeyDriver<HeapQueue> heap;
  KeyDriver<LadderQueue> ladder;
  Time now = 0;

  EventKey push(Time t) {
    const EventKey h = heap.push(t);
    const EventKey l = ladder.push(t);
    EXPECT_EQ(h.slot, l.slot);
    return h;
  }

  void cancel(const EventKey& k) {
    const bool h = heap.cancel(k);
    EXPECT_EQ(h, ladder.cancel(k));
  }

  /// Pop one live key from both; returns false when both are drained.
  /// Asserts the popped keys match.
  bool pop_and_compare() {
    EXPECT_EQ(heap.next_time(), ladder.next_time());
    EventKey h{}, l{};
    const bool hh = heap.pop(h);
    const bool ll = ladder.pop(l);
    EXPECT_EQ(hh, ll);
    if (!hh || !ll) return false;
    EXPECT_EQ(h.t, l.t);
    EXPECT_EQ(h.seq, l.seq);
    EXPECT_EQ(h.slot, l.slot);
    EXPECT_GE(h.t, now);
    now = h.t;
    last = h;
    return true;
  }

  EventKey last{};  ///< key of the most recent pop_and_compare

  void check_both() const {
    heap.queue().check_invariants();
    ladder.queue().check_invariants();
  }
};

/// One randomized mix: pushes spanning front/wheel/tail distances (including
/// the far-future tail and post-prefetch rewinds), cancels of pending keys,
/// interleaved peeks and pops.
void run_differential_mix(std::uint64_t seed, int rounds, bool far_future) {
  sim::Rng rng(seed);
  QueuePair q;
  std::vector<EventKey> pending;

  const auto random_delta = [&]() -> Time {
    const double pick = rng.uniform(100) / 100.0;
    if (pick < 0.40) return static_cast<Time>(rng.uniform(1 << 12));     // front/L0
    if (pick < 0.70) return static_cast<Time>(rng.uniform(1 << 17));     // L0..L1
    if (pick < 0.90) return static_cast<Time>(rng.uniform(1 << 25));     // mid wheel
    if (!far_future) return static_cast<Time>(rng.uniform(1 << 28));     // L3
    return static_cast<Time>(rng.uniform(std::uint64_t{1} << 36));       // tail
  };

  for (int round = 0; round < rounds; ++round) {
    // Schedule a burst. next_time() in between forces ladder prefetch, so
    // later same-window pushes land behind the advanced floor (the rewind
    // path the engine's run_until peek exercises).
    const int burst = 1 + static_cast<int>(rng.uniform(24));
    for (int i = 0; i < burst; ++i) {
      pending.push_back(q.push(q.now + random_delta()));
      if (rng.chance(0.2)) {
        EXPECT_EQ(q.heap.next_time(), q.ladder.next_time());
      }
    }
    // Cancel-heavy churn: kill a random slice of whatever is pending.
    const int kills = static_cast<int>(rng.uniform(pending.size() + 1));
    for (int i = 0; i < kills && !pending.empty(); ++i) {
      const std::size_t at = rng.uniform(pending.size());
      q.cancel(pending[at]);
      pending[at] = pending.back();
      pending.pop_back();
    }
    // Drain a few and compare. Fired keys leave the cancellable set, so
    // every cancel above hits a pending key.
    const int pops = static_cast<int>(rng.uniform(20));
    for (int i = 0; i < pops; ++i) {
      if (!q.pop_and_compare()) break;
      std::erase_if(pending, [&](const EventKey& k) {
        return k.slot == q.last.slot && k.gen == q.last.gen;
      });
    }
    q.check_both();
    // size() includes stale keys and the two arms shed them at different
    // moments (heap: lazily off the top; ladder: bulk purge on refill), so
    // raw sizes are not comparable — live counts must agree exactly.
    EXPECT_EQ(q.heap.queue().size() - q.heap.queue().stale(),
              q.ladder.queue().size() - q.ladder.queue().stale());
  }
  while (q.pop_and_compare()) {
  }
  EXPECT_EQ(q.heap.queue().size(), 0u);
  EXPECT_EQ(q.ladder.queue().size(), 0u);
  q.check_both();
}

TEST(EventQueueDifferential, RandomMixNearFuture) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    run_differential_mix(seed, 60, /*far_future=*/false);
}

TEST(EventQueueDifferential, RandomMixWithFarFutureTail) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    run_differential_mix(seed, 60, /*far_future=*/true);
}

TEST(EventQueueDifferential, CancelStormLeavesBoundedQueue) {
  QueuePair q;
  // Schedule/cancel churn with nothing ever firing: the amortized purge must
  // keep both arms' key counts bounded by ~2x live, so a million cancelled
  // timers cannot accumulate.
  std::vector<EventKey> live;
  sim::Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    live.push_back(q.push(q.now + 1 + static_cast<Time>(rng.uniform(1 << 30))));
    if (live.size() > 64) {
      q.cancel(live.front());
      live.front() = live.back();
      live.pop_back();
    }
  }
  EXPECT_LE(q.heap.queue().size(), 2 * live.size() + 128);
  EXPECT_LE(q.ladder.queue().size(), 2 * live.size() + 128);
  q.check_both();
  while (q.pop_and_compare()) {
  }
}

// ---- engine-level differential ------------------------------------------

/// A minimal engine loop over the heap oracle: sim::Engine's schedule,
/// cancel, batch and run contract, with one callback per driver slot.
class HeapEngine {
 public:
  using Callback = sim::UniqueFunction;

  EventKey at(Time t, Callback cb) {
    const EventKey k = keys_.push(t);
    if (cbs_.size() <= k.slot) cbs_.resize(k.slot + 1);
    cbs_[k.slot] = std::move(cb);
    return k;
  }
  EventKey after(Time delay, Callback cb) { return at(now_ + delay, std::move(cb)); }
  EventKey at_all(Time t, std::vector<Callback> cbs) {
    return at(t, [cbs = std::move(cbs)]() mutable {
      for (auto& cb : cbs) cb();
    });
  }
  bool cancel(const EventKey& k) {
    if (!keys_.cancel(k)) return false;
    cbs_[k.slot].reset();
    return true;
  }

  bool step() {
    EventKey k;
    if (!keys_.pop(k)) return false;
    Callback cb = std::move(cbs_[k.slot]);  // the slot may be reused inside
    now_ = k.t;
    cb();
    return true;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(Time t) {
    while (keys_.next_time() <= t) step();
    if (now_ < t) now_ = t;
  }

  Time now() const { return now_; }
  bool empty() const { return keys_.live() == 0; }
  void check_invariants() const { keys_.queue().check_invariants(); }

 private:
  KeyDriver<HeapQueue> keys_;
  std::vector<Callback> cbs_;
  Time now_ = 0;
};

/// Deterministic engine scenario recording every firing as (tag, time):
/// timers are cancelled mid-flight, fired events schedule follow-ups, at_all
/// batches fire in order, and an event lands at a mid-run run_until cut.
template <class E>
std::vector<std::uint64_t> run_engine_scenario() {
  E eng;
  std::vector<std::uint64_t> trace;
  auto record = [&trace, &eng](std::uint32_t tag) {
    trace.push_back((std::uint64_t{tag} << 32) |
                    static_cast<std::uint64_t>(eng.now()) % (std::uint64_t{1} << 32));
  };

  sim::Rng rng(7);
  std::vector<decltype(eng.at(0, [] {}))> cancellable;
  for (int i = 0; i < 200; ++i) {
    const Time t = 1 + static_cast<Time>(rng.uniform(1 << 20));
    const auto tag = static_cast<std::uint32_t>(i);
    cancellable.push_back(eng.at(t, [&, tag] {
      record(tag);
      if (tag % 5 == 0) eng.after(2000 + tag, [&record, tag] { record(10000 + tag); });
    }));
  }
  // Deterministic cancel slice: every 7th scheduled timer dies before firing.
  for (std::size_t i = 0; i < cancellable.size(); i += 7) eng.cancel(cancellable[i]);
  // Batched release: one event, callbacks in order.
  std::vector<typename E::Callback> batch;
  for (int i = 0; i < 4; ++i) batch.push_back([&record, i] { record(20000 + i); });
  eng.at_all(Time{1 << 21}, std::move(batch));

  eng.run_until(Time{1 << 19});
  // The cut's peek may have moved the ladder's floor past the clock; an
  // event scheduled at the clock must still fire first.
  eng.after(0, [&record] { record(30000); });
  eng.check_invariants();
  eng.run();
  eng.check_invariants();
  EXPECT_TRUE(eng.empty());
  return trace;
}

TEST(EventQueueDifferential, EngineRunsAreIdenticalAcrossKinds) {
  const std::vector<std::uint64_t> oracle = run_engine_scenario<HeapEngine>();
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_engine_scenario<Engine>(), oracle);
}

// ---- invariant death tests ----------------------------------------------

#if DPAR_CHECK_INVARIANTS

TEST(EventQueueDeath, LadderCatchesStrandedFrontBucket) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint32_t> gens{0, 1};
  LadderQueue q(&gens);
  q.push(EventKey{100, 1, 1, 1});  // lands in the floor's front bucket
  q.debug_strand_front_for_test();  // floor jumps a whole wheel span ahead
  EXPECT_DEATH(q.check_invariants(), "outside the floor bucket");
}

TEST(EventQueueDeath, HeapCatchesBrokenOrder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint32_t> gens{0, 1, 1, 1};
  HeapQueue q(&gens);
  q.push(EventKey{100, 1, 1, 1});
  q.push(EventKey{200, 2, 2, 1});
  q.push(EventKey{300, 3, 3, 1});
  q.debug_corrupt_order_for_test();
  EXPECT_DEATH(q.check_invariants(), "child precedes its parent");
}

#else

TEST(EventQueueDeath, SkippedWithoutInvariantLayer) {
  GTEST_SKIP() << "DPAR_CHECK_INVARIANTS is compiled out in this build "
                  "(Release default); Debug/sanitizer legs run the death "
                  "tests.";
}

#endif  // DPAR_CHECK_INVARIANTS

}  // namespace
}  // namespace dpar
