// Differential tests: the flat I/O schedulers (sched_simple.cpp,
// sched_cfq.cpp) against the frozen multimap originals
// (tests/oracles/sched_reference.cpp), under randomized arrival / dispatch /
// expiry sequences — the same treatment test_rangeset_model.cpp gives
// RangeSet. Every Decision must match field for field.
//
// Ids are unique throughout the differential runs: the reference deadline
// scheduler indexes FIFO staleness by request id, the flat one by slab-slot
// generation, and the two notions only coincide when ids are not reused
// (DeadlineFifoDesync below covers the divergent duplicate-id corner).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/scheduler.hpp"
#include "disk/sorted_queue.hpp"
#include "oracles/sched_reference.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dpar::disk {
namespace {

struct ReqSpec {
  std::uint64_t id = 0;
  std::uint64_t lba = 0;
  std::uint32_t sectors = 8;
  bool is_write = false;
  std::uint64_t context = 0;
};

Request materialize(const ReqSpec& s) {
  Request r;
  r.id = s.id;
  r.lba = s.lba;
  r.sectors = s.sectors;
  r.is_write = s.is_write;
  r.context = s.context;
  return r;
}

void expect_same(const Decision& flat, const Decision& ref, const std::string& where) {
  ASSERT_EQ(static_cast<int>(flat.kind), static_cast<int>(ref.kind)) << where;
  if (flat.kind == Decision::Kind::kDispatch) {
    EXPECT_EQ(flat.request.id, ref.request.id) << where;
    EXPECT_EQ(flat.request.lba, ref.request.lba) << where;
    EXPECT_EQ(flat.request.sectors, ref.request.sectors) << where;
    EXPECT_EQ(flat.request.is_write, ref.request.is_write) << where;
    EXPECT_EQ(flat.request.context, ref.request.context) << where;
  } else if (flat.kind == Decision::Kind::kWaitUntil) {
    EXPECT_EQ(flat.wait_until, ref.wait_until) << where;
  }
}

using SchedFactory = std::unique_ptr<IoScheduler> (*)();

struct Policy {
  const char* name;
  SchedFactory flat;
  SchedFactory ref;
};

const Policy kPolicies[] = {
    {"noop", +[] { return make_noop_scheduler(); },
     +[] { return make_reference_noop_scheduler(); }},
    {"deadline", +[] { return make_deadline_scheduler(); },
     +[] { return make_reference_deadline_scheduler(); }},
    {"cscan", +[] { return make_cscan_scheduler(); },
     +[] { return make_reference_cscan_scheduler(); }},
    {"cfq", +[] { return make_cfq_scheduler(); },
     +[] { return make_reference_cfq_scheduler(); }},
};

/// Drive flat and reference through one randomized schedule and compare every
/// decision. The lba domain is kept small enough that equal-sector ties occur
/// (the multimap's insertion-order iteration is part of the contract), and
/// time jumps straddle the deadline scheduler's 500 ms / 5 s expiries and
/// CFQ's 100 ms slice.
void run_differential(const Policy& policy, std::uint64_t seed, int ops) {
  auto flat = policy.flat();
  auto ref = policy.ref();
  sim::Rng rng(seed);
  sim::Time now = 0;
  std::uint64_t head = 0;
  std::uint64_t next_id = 1;

  auto serve_one = [&](const std::string& where) {
    for (int spins = 0; spins < 64; ++spins) {
      Decision df = flat->next(head, now);
      Decision dr = ref->next(head, now);
      expect_same(df, dr, where);
      if (::testing::Test::HasFatalFailure()) return;
      if (df.kind == Decision::Kind::kDispatch) {
        head = df.request.end_lba();
        now += sim::usec(50 + rng.uniform(200));
        flat->completed(df.request, now);
        ref->completed(dr.request, now);
        return;
      }
      if (df.kind == Decision::Kind::kWaitUntil) {
        now = std::max(now + 1, df.wait_until);
        continue;
      }
      return;  // both idle
    }
    FAIL() << where << ": scheduler spun without dispatching";
  };

  for (int op = 0; op < ops; ++op) {
    const std::string where = std::string(policy.name) + " seed=" +
                              std::to_string(seed) + " op=" + std::to_string(op);
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 40) {
      ReqSpec s;
      s.id = next_id++;
      s.lba = rng.uniform(1 << 9) * 8;  // small domain: equal-sector ties
      s.sectors = 8;
      s.is_write = rng.uniform(4) == 0;
      s.context = rng.uniform(6);
      flat->enqueue(materialize(s), now);
      ref->enqueue(materialize(s), now);
    } else if (roll < 50) {
      // A burst at one instant: usually an ascending run (a decomposed
      // list-I/O request), sometimes shuffled.
      const std::size_t n = 1 + rng.uniform(24);
      const bool ascending = !rng.chance(0.25);
      std::uint64_t lba = rng.uniform(1 << 12) * 8;
      for (std::size_t i = 0; i < n; ++i) {
        ReqSpec s;
        s.id = next_id++;
        s.lba = ascending ? (lba += 8 * (1 + rng.uniform(4))) : rng.uniform(1 << 9) * 8;
        s.sectors = 8;
        s.is_write = rng.uniform(4) == 0;
        s.context = rng.uniform(6);
        flat->enqueue(materialize(s), now);
        ref->enqueue(materialize(s), now);
      }
    } else if (roll < 85) {
      ASSERT_EQ(flat->pending(), ref->pending()) << where;
      if (flat->pending() > 0) {
        serve_one(where);
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else if (roll < 95) {
      now += sim::usec(rng.uniform(5000));
    } else {
      // Large jump: expire read deadlines (500 ms), occasionally writes (5 s).
      now += rng.chance(0.2) ? sim::secs(6) : sim::msec(600);
    }
  }

  // Full drain. Bursts can leave a backlog well beyond `ops`, so the
  // runaway guard is sized from the actual backlog, not the op count.
  std::size_t guard = 0;
  const std::size_t drain_budget = flat->pending() + 1000;
  while (flat->pending() > 0 && guard++ < drain_budget) {
    ASSERT_EQ(flat->pending(), ref->pending()) << policy.name << " drain";
    serve_one(std::string(policy.name) + " drain");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(flat->pending(), 0u) << policy.name;
  EXPECT_EQ(ref->pending(), 0u) << policy.name;
}

class SchedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedDifferential, FlatMatchesReferenceDecisionForDecision) {
  for (const Policy& p : kPolicies) {
    run_differential(p, GetParam(), 4000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

/// The deadline scheduler's FIFO-desync guard (originally a reachable-looking
/// throw in sched_simple.cpp): a request dispatched by the elevator sweep
/// leaves its expiry-FIFO entry behind. Lazy validation must drop that stale
/// entry — in the reference via the id index, in the flat scheduler via the
/// slab-slot generation — and never reach the logic_error.
TEST(DeadlineFifoDesync, StaleFifoEntriesAreDroppedNotFatal) {
  for (auto make : {+[] { return make_deadline_scheduler(sim::msec(100), sim::secs(5)); },
                    +[] { return make_reference_deadline_scheduler(sim::msec(100), sim::secs(5)); }}) {
    auto s = make();
    // Read A sits near the head and is swept up before its deadline; its FIFO
    // entry goes stale. Read B far away expires and must jump the queue.
    ReqSpec a{1, 1000, 8, false, 0}, b{2, 900000, 8, false, 0}, c{3, 2000, 8, false, 0};
    s->enqueue(materialize(a), 0);
    s->enqueue(materialize(b), 0);
    Decision d = s->next(0, sim::msec(1));
    ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
    EXPECT_EQ(d.request.id, 1u);
    s->enqueue(materialize(c), sim::msec(2));
    // Both A's stale entry and B's expired entry sit at the FIFO head now.
    ASSERT_NO_THROW(d = s->next(d.request.end_lba(), sim::msec(150)));
    ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
    EXPECT_EQ(d.request.id, 2u);  // expired B preempts the sweep (C is nearer)
    ASSERT_NO_THROW(d = s->next(d.request.end_lba(), sim::msec(150)));
    EXPECT_EQ(d.request.id, 3u);
    EXPECT_EQ(s->pending(), 0u);
  }
}

/// Randomized churn across expiries: the desync guard must stay unreachable
/// (no logic_error) while every request is served exactly once.
TEST(DeadlineFifoDesync, GuardIsUnreachableUnderChurn) {
  for (auto make : {+[] { return make_deadline_scheduler(); },
                    +[] { return make_reference_deadline_scheduler(); }}) {
    auto s = make();
    sim::Rng rng(99);
    sim::Time now = 0;
    std::uint64_t head = 0, next_id = 1, served = 0, enqueued = 0;
    ASSERT_NO_THROW({
      for (int op = 0; op < 20000; ++op) {
        const std::uint64_t roll = rng.uniform(10);
        if (roll < 4) {
          ReqSpec spec;
          spec.id = next_id++;
          spec.lba = rng.uniform(1 << 9) * 8;
          spec.is_write = rng.uniform(3) == 0;
          s->enqueue(materialize(spec), now);
          ++enqueued;
        } else if (roll < 8 && s->pending() > 0) {
          Decision d = s->next(head, now);
          ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
          head = d.request.end_lba();
          ++served;
        } else if (roll < 9) {
          now += sim::msec(600);  // read expiry
        } else {
          now += sim::secs(6);  // write expiry
        }
      }
      while (s->pending() > 0) {
        Decision d = s->next(head, now);
        ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
        head = d.request.end_lba();
        ++served;
      }
    });
    EXPECT_EQ(served, enqueued);
  }
}

/// Duplicate ids are the one corner where flat and reference diverge by
/// design: the reference's id-keyed staleness index conflates the two
/// requests (the survivor's FIFO entry looks stale and loses its deadline),
/// while slot generations keep them distinct. Both must still serve every
/// request exactly once, without throwing.
TEST(DeadlineFifoDesync, DuplicateIdsServeEveryRequestOnce) {
  for (auto make : {+[] { return make_deadline_scheduler(sim::msec(100), sim::secs(5)); },
                    +[] { return make_reference_deadline_scheduler(sim::msec(100), sim::secs(5)); }}) {
    auto s = make();
    ReqSpec a{7, 1000, 8, false, 0}, dup{7, 500000, 8, false, 0};
    s->enqueue(materialize(a), 0);
    s->enqueue(materialize(dup), 0);
    std::uint64_t head = 0;
    std::size_t served = 0;
    ASSERT_NO_THROW({
      sim::Time now = sim::msec(1);
      while (s->pending() > 0) {
        Decision d = s->next(head, now);
        ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
        head = d.request.end_lba();
        now += sim::msec(150);  // straddles the read deadline
        ++served;
      }
    });
    EXPECT_EQ(served, 2u);
  }
}

// ---- Unit tests of the flat containers themselves.

TEST(SortedRunQueue, ElevatorOrderWithInsertionOrderTieBreak) {
  SortedRunQueue q;
  q.insert(materialize({1, 100, 8, false, 0}));
  q.insert(materialize({2, 50, 8, false, 0}));
  q.insert(materialize({3, 100, 8, false, 0}));  // ties with id 1, arrived later
  q.insert(materialize({4, 200, 8, false, 0}));
  EXPECT_EQ(q.take(q.pick(60)).id, 1u);   // first 100, insertion order
  EXPECT_EQ(q.take(q.pick(60)).id, 3u);   // second 100
  EXPECT_EQ(q.take(q.pick(150)).id, 4u);  // 200
  EXPECT_EQ(q.take(q.pick(250)).id, 2u);  // wrap to 50
  EXPECT_TRUE(q.empty());
}

TEST(SortedRunQueue, LazyMergeKeepsOrderAcrossInterleavedAppends) {
  SortedRunQueue q;
  sim::Rng rng(5);
  std::vector<std::uint64_t> lbas;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t lba = rng.uniform(1 << 16);
      lbas.push_back(lba);
      q.insert(materialize({static_cast<std::uint64_t>(lbas.size()), lba, 8, false, 0}));
    }
    // Serve a few from a moving head; each must be the elevator's choice.
    std::uint64_t head = rng.uniform(1 << 16);
    for (int i = 0; i < 10 && !q.empty(); ++i) {
      const Request r = q.take(q.pick(head));
      // The picked lba must be the smallest >= head, or the global minimum,
      // validated against the full pending multiset.
      std::uint64_t best_above = UINT64_MAX, best_min = UINT64_MAX;
      for (std::size_t k = 0; k < lbas.size(); ++k) {
        if (lbas[k] == UINT64_MAX) continue;
        best_min = std::min(best_min, lbas[k]);
        if (lbas[k] >= head) best_above = std::min(best_above, lbas[k]);
      }
      const std::uint64_t expect = best_above != UINT64_MAX ? best_above : best_min;
      ASSERT_EQ(r.lba, expect);
      lbas[r.id - 1] = UINT64_MAX;  // mark served
      head = r.end_lba();
    }
  }
}

TEST(SortedRunQueue, TombstoneCompactionKeepsIndexOfSlotCorrect) {
  SortedRunQueue q;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 64; ++i)
    slots.push_back(q.insert(materialize({i + 1, i * 16, 8, false, 0})));
  // Take every other request via index_of_slot, forcing compaction cycles.
  for (std::size_t i = 0; i < 64; i += 2) {
    const std::size_t idx = q.index_of_slot(slots[i]);
    ASSERT_NE(idx, SortedRunQueue::npos);
    EXPECT_EQ(q.take(idx).id, i + 1);
  }
  EXPECT_EQ(q.size(), 32u);
  for (std::size_t i = 1; i < 64; i += 2) {
    const std::size_t idx = q.index_of_slot(slots[i]);
    ASSERT_NE(idx, SortedRunQueue::npos);
    EXPECT_EQ(q.peek(idx).id, i + 1);
  }
  // A dispatched slot is no longer found.
  EXPECT_EQ(q.index_of_slot(slots[0]), SortedRunQueue::npos);
}

TEST(SortedRunQueue, GenerationBumpsOnTakeAndSlotReuse) {
  SortedRunQueue q;
  const std::uint32_t s1 = q.insert(materialize({1, 100, 8, false, 0}));
  const std::uint32_t g1 = q.generation(s1);
  q.take(q.index_of_slot(s1));
  EXPECT_NE(q.generation(s1), g1);
  const std::uint32_t s2 = q.insert(materialize({2, 300, 8, false, 0}));
  EXPECT_EQ(s2, s1);  // LIFO slot reuse
  EXPECT_NE(q.generation(s2), g1);
}

TEST(SortedRunQueue, DescendingBurstServesAscending) {
  SortedRunQueue q;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 10; ++i)
    slots.push_back(q.insert(materialize({i + 1, (10 - i) * 64, 8, false, 0})));  // descending
  for (std::size_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(q.peek(q.index_of_slot(slots[i])).id, i + 1);
  // Elevator still serves in ascending order.
  std::uint64_t head = 0, prev = 0;
  while (!q.empty()) {
    const Request r = q.take(q.pick(head));
    EXPECT_GE(r.lba, prev);
    prev = r.lba;
    head = r.end_lba();
  }
}

TEST(SlotFifo, FifoOrderAcrossGrowthAndWrap) {
  sim::SlotFifo<std::uint32_t> f;
  std::uint32_t next_push = 0, next_pop = 0;
  sim::Rng rng(3);
  for (int op = 0; op < 10000; ++op) {
    if (f.empty() || rng.chance(0.55)) {
      f.push_back(next_push++);
    } else {
      ASSERT_EQ(f.front(), next_pop);
      ASSERT_EQ(f.pop_front(), next_pop++);
    }
    ASSERT_EQ(f.size(), next_push - next_pop);
  }
  while (!f.empty()) ASSERT_EQ(f.pop_front(), next_pop++);
  EXPECT_EQ(next_push, next_pop);
}

TEST(ContextTable, ValuesSurviveRehash) {
  ContextTable<std::uint64_t> t;
  for (std::uint64_t k = 0; k < 500; ++k) t.find_or_insert(k * 7919) = k;
  EXPECT_EQ(t.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    auto* v = t.find(k * 7919);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(t.find(123456789u), nullptr);
  // find_or_insert is idempotent.
  t.find_or_insert(7919) = 77;
  EXPECT_EQ(*t.find(7919), 77u);
  EXPECT_EQ(t.size(), 500u);
}

}  // namespace
}  // namespace dpar::disk
