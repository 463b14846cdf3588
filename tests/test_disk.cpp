// Unit and property tests for the disk model, I/O schedulers and device.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "disk/device.hpp"
#include "disk/model.hpp"
#include "disk/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace dpar::disk {
namespace {

using sim::Engine;
using sim::Time;

DiskParams test_params() {
  DiskParams p;
  p.capacity_bytes = 100ull << 30;
  return p;
}

TEST(DiskModel, SequentialIsFasterThanRandom) {
  DiskModel m(test_params());
  const Time seq = m.service_time(0, 32);
  DiskModel m2(test_params());
  const Time rnd = m2.service_time(m2.params().capacity_sectors() / 2, 32);
  EXPECT_LT(seq * 10, rnd);  // order-of-magnitude gap (§I)
}

TEST(DiskModel, ServiceTimeMonotonicInSeekDistance) {
  DiskModel m(test_params());
  Time prev = 0;
  for (std::uint64_t frac = 1; frac <= 8; ++frac) {
    const std::uint64_t lba = m.params().capacity_sectors() * frac / 10;
    const Time t = m.service_time(lba, 32);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DiskModel, ServeAdvancesHead) {
  DiskModel m(test_params());
  m.serve(1000, 64);
  EXPECT_EQ(m.head(), 1064u);
  // Continuing exactly at the head is streaming: no seek or rotation.
  const Time t = m.service_time(1064, 64);
  const Time pure_transfer =
      sim::transfer_time(64 * kSectorBytes, m.params().bytes_per_sec());
  EXPECT_EQ(t, m.params().command_overhead + pure_transfer);
}

TEST(DiskModel, ForwardGapsCheapBackwardJumpsExpensive) {
  DiskModel m(test_params());
  m.serve(10000, 32);
  // Small forward skip: passed over at angular speed.
  const Time fwd = m.service_time(10032 + 128, 32);
  // Equal-distance backward jump: the sector already passed under the head,
  // so a full rotation-class repositioning is due.
  const Time bwd = m.service_time(10032 - 160, 32);
  EXPECT_LT(fwd * 4, bwd);
  // Medium forward skips never cost more than a true repositioning.
  const std::uint64_t far = m.params().capacity_sectors() / 2;
  EXPECT_LE(m.service_time(10032 + far, 32), m.service_time(10032 + far, 32));
  const Time pass_1mb = m.service_time(10032 + 2048, 32);
  EXPECT_LT(pass_1mb, m.reposition_time(2048) + sim::msec(5));
}

TEST(DiskModel, SustainedSequentialThroughputMatchesMediaRate) {
  DiskModel m(test_params());
  // 1000 consecutive 128 KB requests.
  Time total = 0;
  std::uint64_t lba = 0;
  for (int i = 0; i < 1000; ++i) {
    total += m.serve(lba, 256);
    lba += 256;
  }
  const double bytes = 1000.0 * 256 * kSectorBytes;
  const double mbps = bytes / sim::to_seconds(total) / 1e6;
  EXPECT_NEAR(mbps, m.params().sustained_mb_s, m.params().sustained_mb_s * 0.35);
}

Request make_req(std::uint64_t id, std::uint64_t lba, std::uint32_t sectors,
                 std::uint64_t ctx = 0) {
  Request r;
  r.id = id;
  r.lba = lba;
  r.sectors = sectors;
  r.context = ctx;
  return r;
}

std::vector<std::uint64_t> drain_order(IoScheduler& s) {
  std::vector<std::uint64_t> order;
  std::uint64_t head = 0;
  while (true) {
    Decision d = s.next(head, sim::secs(100));
    if (d.kind == Decision::Kind::kIdle) break;
    if (d.kind == Decision::Kind::kWaitUntil) continue;  // expired by far-future now
    order.push_back(d.request.lba);
    head = d.request.end_lba();
  }
  return order;
}

TEST(NoopScheduler, FifoOrder) {
  auto s = make_noop_scheduler();
  s->enqueue(make_req(1, 500, 8), 0);
  s->enqueue(make_req(2, 100, 8), 0);
  s->enqueue(make_req(3, 900, 8), 0);
  EXPECT_EQ(drain_order(*s), (std::vector<std::uint64_t>{500, 100, 900}));
}

TEST(CscanScheduler, AscendingSweepWithWrap) {
  auto s = make_cscan_scheduler();
  for (std::uint64_t lba : {500u, 100u, 900u, 300u, 700u})
    s->enqueue(make_req(lba, lba, 8), 0);
  std::vector<std::uint64_t> order;
  std::uint64_t head = 400;
  while (true) {
    Decision d = s->next(head, 0);
    if (d.kind != Decision::Kind::kDispatch) break;
    order.push_back(d.request.lba);
    head = d.request.end_lba();
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{500, 700, 900, 100, 300}));
}

TEST(DeadlineScheduler, ExpiredRequestJumpsQueue) {
  auto s = make_deadline_scheduler(sim::msec(100), sim::secs(5));
  s->enqueue(make_req(1, 1000, 8), 0);          // near head after the next one
  s->enqueue(make_req(2, 900000, 8), sim::msec(0));  // far away, will expire
  // Before expiry: sweep order (ascending from head 0).
  Decision d = s->next(0, sim::msec(1));
  EXPECT_EQ(d.request.lba, 1000u);
  // After expiry of request 2 it is served regardless of position.
  d = s->next(d.request.end_lba(), sim::msec(500));
  EXPECT_EQ(d.request.lba, 900000u);
}

TEST(AllSchedulers, EveryRequestIsServedExactlyOnce) {
  for (auto kind : {SchedulerKind::kNoop, SchedulerKind::kDeadline,
                    SchedulerKind::kCscan, SchedulerKind::kCfq}) {
    auto s = make_scheduler(kind);
    sim::Rng rng(11);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 500; ++i) {
      s->enqueue(make_req(i, rng.uniform(1u << 20), 8, rng.uniform(7)), 0);
      ids.push_back(i);
    }
    std::vector<std::uint64_t> served;
    std::uint64_t head = 0;
    Time now = sim::secs(1);
    int guard = 0;
    while (s->pending() > 0 && guard++ < 5000) {
      Decision d = s->next(head, now);
      if (d.kind == Decision::Kind::kDispatch) {
        served.push_back(d.request.id);
        head = d.request.end_lba();
        s->completed(d.request, now);
      } else if (d.kind == Decision::Kind::kWaitUntil) {
        now = std::max(now + 1, d.wait_until);
      } else {
        break;
      }
      now += sim::usec(100);
    }
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, ids) << s->name();
  }
}

TEST(CfqScheduler, SingleDeepSortedQueueServesAscending) {
  auto s = make_cfq_scheduler();
  sim::Rng rng(3);
  for (int i = 0; i < 200; ++i)
    s->enqueue(make_req(static_cast<std::uint64_t>(i), rng.uniform(1u << 22), 8, /*ctx=*/42), 0);
  std::uint64_t head = 0;
  std::vector<std::uint64_t> lbas;
  Time now = 0;
  while (s->pending() > 0) {
    Decision d = s->next(head, now);
    ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
    lbas.push_back(d.request.lba);
    head = d.request.end_lba();
    s->completed(d.request, now);
    now += sim::usec(50);  // fast service keeps the slice alive
  }
  // Ascending except at slice renewals/wraps: count direction reversals.
  int reversals = 0;
  for (std::size_t i = 1; i < lbas.size(); ++i)
    if (lbas[i] < lbas[i - 1]) ++reversals;
  EXPECT_LE(reversals, 3);
}

TEST(CfqScheduler, InterleavedContextsCauseMoreReversalsThanOneContext) {
  auto count_reversals = [](int num_contexts) {
    auto s = make_cfq_scheduler();
    sim::Rng rng(5);
    // Each context owns a distinct disk region and strides through it.
    for (int i = 0; i < 240; ++i) {
      const std::uint64_t ctx = static_cast<std::uint64_t>(i % num_contexts);
      const std::uint64_t lba = ctx * (1u << 22) + static_cast<std::uint64_t>(i) * 64;
      s->enqueue(make_req(static_cast<std::uint64_t>(i), lba, 8, ctx), 0);
    }
    std::uint64_t head = 0;
    Time now = 0;
    int reversals = 0;
    std::uint64_t prev = 0;
    bool first = true;
    while (s->pending() > 0) {
      Decision d = s->next(head, now);
      if (d.kind == Decision::Kind::kWaitUntil) {
        now = d.wait_until;
        continue;
      }
      if (d.kind == Decision::Kind::kIdle) break;
      if (!first && d.request.lba < prev) ++reversals;
      prev = d.request.lba;
      first = false;
      head = d.request.end_lba();
      s->completed(d.request, now);
      // Service time long enough to expire slices between contexts.
      now += sim::msec(30);
    }
    return reversals;
  };
  EXPECT_GT(count_reversals(8), count_reversals(1));
}

TEST(CfqScheduler, ThinkTimeGateDisablesIdling) {
  // A context with a long gap between completion and next request should not
  // trigger anticipation waits once its think time is learned.
  CfqParams p;
  auto s = make_cfq_scheduler(p);
  Time now = 0;
  // Train the context: three rounds of request->completion->long gap.
  for (int round = 0; round < 3; ++round) {
    s->enqueue(make_req(static_cast<std::uint64_t>(round), 1000u * (round + 1), 8, 7), now);
    Decision d = s->next(0, now);
    ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
    now += sim::msec(1);
    s->completed(d.request, now);
    // Mid-slice with empty queue: first rounds may anticipate.
    now += sim::msec(50);  // think time 50 ms >> slice_idle 8 ms
  }
  s->enqueue(make_req(99, 5000, 8, 7), now);
  Decision d = s->next(0, now);
  ASSERT_EQ(d.kind, Decision::Kind::kDispatch);
  now += sim::msec(1);
  s->completed(d.request, now);
  // Queue empty, slice alive; with think time ~50ms the gate must refuse to wait.
  d = s->next(0, now);
  EXPECT_NE(d.kind, Decision::Kind::kWaitUntil);
}

TEST(DiskDevice, ServesSubmittedRequestsAndTraces) {
  Engine eng;
  DiskDevice dev(eng, test_params(), make_cfq_scheduler());
  dev.set_keep_trace_events(true);
  int completed = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request r = make_req(i, i * 1000, 32, i % 3);
    r.done = [&completed](fault::Status) { ++completed; };
    dev.submit(std::move(r));
  }
  eng.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(dev.requests_served(), 10u);
  EXPECT_EQ(dev.trace().events().size(), 10u);
  EXPECT_EQ(dev.bytes_served(), 10u * 32 * kSectorBytes);
  EXPECT_GT(dev.busy_time(), 0);
}

TEST(DiskDevice, DeepSortedBatchBeatsInterleavedArrivals) {
  // The motivating observation (§II): the same set of requests served from a
  // deep pre-sorted queue finishes much faster than when arriving
  // process-interleaved in small windows.
  auto run = [](bool sorted_batch) {
    Engine eng;
    DiskDevice dev(eng, test_params(), make_cfq_scheduler());
    std::vector<Request> reqs;
    // 8 "processes" each striding through its own region.
    for (int k = 0; k < 64; ++k) {
      for (std::uint64_t p = 0; p < 8; ++p) {
        Request r = make_req(p * 1000 + static_cast<std::uint64_t>(k),
                             p * (1u << 21) + static_cast<std::uint64_t>(k) * 2048, 32,
                             sorted_batch ? 0 : p);
        reqs.push_back(std::move(r));
      }
    }
    if (sorted_batch) {
      std::sort(reqs.begin(), reqs.end(),
                [](const Request& a, const Request& b) { return a.lba < b.lba; });
      for (auto& r : reqs) dev.submit(std::move(r));
    } else {
      // Interleaved arrival: one request per process per millisecond window.
      Time t = 0;
      for (std::size_t i = 0; i < reqs.size(); i += 8) {
        for (std::size_t j = i; j < i + 8; ++j) {
          Request r = std::move(reqs[j]);
          eng.at(t, [&dev, r = std::move(r)]() mutable { dev.submit(std::move(r)); });
        }
        t += sim::msec(12);
      }
    }
    eng.run();
    return eng.now();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Raid0Device, SplitsAndCompletesOnce) {
  Engine eng;
  Raid0Device raid(eng, test_params(), make_noop_scheduler(), make_noop_scheduler(),
                   /*chunk_sectors=*/128);
  int completed = 0;
  Request r = make_req(1, 100, 300);  // spans chunks 0,1,2 -> both members
  r.done = [&completed](fault::Status) { ++completed; };
  raid.submit(std::move(r));
  eng.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(raid.member(0).requests_served() + raid.member(1).requests_served(), 2u);
  const std::uint64_t total_bytes =
      raid.member(0).bytes_served() + raid.member(1).bytes_served();
  EXPECT_EQ(total_bytes, 300u * kSectorBytes);
}

TEST(Raid0Device, SequentialStreamUsesBothMembers) {
  Engine eng;
  Raid0Device raid(eng, test_params(), make_noop_scheduler(), make_noop_scheduler(), 128);
  int completed = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Request r = make_req(i, i * 128, 128);
    r.done = [&completed](fault::Status) { ++completed; };
    raid.submit(std::move(r));
  }
  eng.run();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(raid.member(0).requests_served(), 8u);
  EXPECT_EQ(raid.member(1).requests_served(), 8u);
}

TEST(BlkTrace, WindowSelectsEventsInRange) {
  BlkTrace tr;
  tr.set_keep_events(true);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.time = sim::msec(i * 10);
    ev.lba = static_cast<std::uint64_t>(i);
    tr.record(ev);
  }
  const auto w = tr.window(sim::msec(20), sim::msec(50));
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.front().lba, 2u);
  EXPECT_EQ(w.back().lba, 4u);
}

TEST(BlkTrace, SeekDistanceSlotSampling) {
  BlkTrace tr;
  TraceEvent ev;
  ev.time = sim::msec(100);
  ev.seek_distance = 1000;
  tr.record(ev);
  ev.time = sim::msec(200);
  ev.seek_distance = 3000;
  tr.record(ev);
  EXPECT_DOUBLE_EQ(tr.slot_seek_distance(sim::msec(600)), 2000.0);
}

}  // namespace
}  // namespace dpar::disk
