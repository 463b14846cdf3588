// Edge cases of the I/O schedulers and the disk device beyond the main
// suites: deadline write expiry, C-SCAN wrap exactness, CFQ slice expiry,
// anticipation interruption, and device accounting.
#include <gtest/gtest.h>

#include <vector>

#include "disk/device.hpp"
#include "disk/scheduler.hpp"
#include "sim/engine.hpp"

namespace dpar::disk {
namespace {

using sim::Engine;
using sim::Time;

Request req(std::uint64_t id, std::uint64_t lba, std::uint32_t sectors,
            std::uint64_t ctx = 0, bool write = false) {
  Request r;
  r.id = id;
  r.lba = lba;
  r.sectors = sectors;
  r.context = ctx;
  r.is_write = write;
  return r;
}

TEST(DeadlineScheduler, WriteDeadlineLongerThanRead) {
  auto s = make_deadline_scheduler(sim::msec(100), sim::msec(1000));
  s->enqueue(req(1, 900000, 8, 0, /*write=*/true), 0);
  s->enqueue(req(2, 1000, 8, 0, /*write=*/false), 0);
  // At 500 ms the read (expired at 100 ms) must pre-empt the sweep; the
  // write (expires at 1000 ms) must not.
  auto d = s->next(500000, sim::msec(500));
  ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
  EXPECT_EQ(d.request.id, 2u);
}

TEST(DeadlineScheduler, StaleFifoEntriesAreSkipped) {
  auto s = make_deadline_scheduler(sim::msec(10), sim::msec(10));
  s->enqueue(req(1, 100, 8), 0);
  s->enqueue(req(2, 200, 8), 0);
  // Serve both via the sweep before expiry.
  (void)s->next(0, sim::msec(1));
  (void)s->next(108, sim::msec(2));
  EXPECT_EQ(s->pending(), 0u);
  // Their FIFO entries are stale; a later request must still dispatch.
  s->enqueue(req(3, 300, 8), sim::msec(50));
  auto d = s->next(0, sim::msec(100));
  ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
  EXPECT_EQ(d.request.id, 3u);
}

TEST(CscanScheduler, ExactWrapBehaviour) {
  auto s = make_cscan_scheduler();
  s->enqueue(req(1, 100, 8), 0);
  s->enqueue(req(2, 500, 8), 0);
  // Head exactly at 500: lower_bound picks 500 itself.
  auto d = s->next(500, 0);
  EXPECT_EQ(d.request.lba, 500u);
  // Head beyond everything: wraps to the lowest.
  d = s->next(10000, 0);
  EXPECT_EQ(d.request.lba, 100u);
}

TEST(CfqScheduler, SliceExpiryRotatesContexts) {
  CfqParams p;
  p.slice_sync = sim::msec(10);
  auto s = make_cfq_scheduler(p);
  // Two contexts, several requests each.
  for (int i = 0; i < 3; ++i) {
    s->enqueue(req(static_cast<std::uint64_t>(i), 1000u + i * 8, 8, 1), 0);
    s->enqueue(req(static_cast<std::uint64_t>(10 + i), 90000u + i * 8, 8, 2), 0);
  }
  Time now = 0;
  std::vector<std::uint64_t> ctx_order;
  std::uint64_t head = 0;
  while (s->pending() > 0) {
    auto d = s->next(head, now);
    if (d.kind == Decision::Kind::kWaitUntil) {
      now = d.wait_until;
      continue;
    }
    ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
    if (ctx_order.empty() || ctx_order.back() != d.request.context)
      ctx_order.push_back(d.request.context);
    head = d.request.end_lba();
    s->completed(d.request, now);
    now += sim::msec(6);  // two requests exhaust a slice
  }
  // The schedule alternated between the contexts at least once.
  EXPECT_GE(ctx_order.size(), 2u);
}

TEST(DiskDevice, AnticipationWaitInterruptedByNewArrival) {
  Engine eng;
  DiskParams p;
  DiskDevice dev(eng, p, make_cfq_scheduler());
  std::vector<Time> completions;
  Request r1 = req(1, 1000, 8, /*ctx=*/5);
  r1.done = [&](fault::Status) { completions.push_back(eng.now()); };
  dev.submit(std::move(r1));
  eng.run();  // served; CFQ may now anticipate context 5
  const Time t_first = eng.now();
  // A same-context request arrives during the anticipation window: it must
  // be served promptly (not after the 8 ms window).
  Request r2 = req(2, 1008, 8, /*ctx=*/5);
  r2.done = [&](fault::Status) { completions.push_back(eng.now()); };
  eng.at(t_first + sim::msec(1), [&dev, &r2]() mutable { dev.submit(std::move(r2)); });
  eng.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_LT(completions[1], t_first + sim::msec(3));
}

TEST(DiskDevice, AccountingMatchesWork) {
  Engine eng;
  DiskParams p;
  DiskDevice dev(eng, p, make_noop_scheduler());
  for (std::uint64_t i = 0; i < 4; ++i) dev.submit(req(i, i * 100000, 64));
  eng.run();
  EXPECT_EQ(dev.requests_served(), 4u);
  EXPECT_EQ(dev.bytes_served(), 4u * 64 * kSectorBytes);
  EXPECT_GT(dev.busy_time(), 0);
  EXPECT_LE(dev.busy_time(), eng.now());
  EXPECT_EQ(dev.trace().dispatches(), 4u);
}

TEST(BlkTrace, KeepEventsOffStillCountsStats) {
  BlkTrace tr;  // default-constructed: keeps no event list
  TraceEvent ev;
  ev.time = sim::msec(1);
  ev.seek_distance = 500;
  tr.record(ev);
  tr.record(ev);
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.dispatches(), 2u);
  EXPECT_DOUBLE_EQ(tr.mean_seek_distance(), 500.0);
}

TEST(Raid0Device, SingleSectorRequests) {
  Engine eng;
  DiskParams p;
  Raid0Device raid(eng, p, make_noop_scheduler(), make_noop_scheduler(), 128);
  int done = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Request r = req(i, i * 128, 1);  // one sector in each chunk
    r.done = [&done](fault::Status) { ++done; };
    raid.submit(std::move(r));
  }
  eng.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(raid.member(0).requests_served(), 2u);
  EXPECT_EQ(raid.member(1).requests_served(), 2u);
}

}  // namespace
}  // namespace dpar::disk
