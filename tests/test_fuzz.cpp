// Randomized cross-checks against simple reference models: the global cache
// against a byte map, striping decomposition against brute force, the event
// engine under stress, and disk-model physics over parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cache/global_cache.hpp"
#include "disk/model.hpp"
#include "harness/testbed.hpp"
#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

TEST(FuzzGlobalCache, MatchesByteMapModel) {
  sim::Engine eng;
  net::Network net(eng, 3);
  cache::GlobalCache cache(eng, net, {0, 1, 2},
                           cache::CacheParams{16 * 1024, sim::secs(1000), 0});
  sim::Rng rng(2024);
  // Reference model: byte -> {valid, dirty} for one file.
  std::map<std::uint64_t, std::pair<bool, bool>> model;
  const std::uint64_t space = 1 << 20;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t off = rng.uniform(space - 1);
    const std::uint64_t len = 1 + rng.uniform(40'000);
    const pfs::Segment seg{off, std::min(len, space - off)};
    switch (rng.uniform(3)) {
      case 0:
        cache.insert(7, seg, 1, false);
        for (std::uint64_t b = seg.offset; b < seg.end(); ++b) model[b].first = true;
        break;
      case 1:
        cache.write(7, seg, 1);
        for (std::uint64_t b = seg.offset; b < seg.end(); ++b)
          model[b] = {true, true};
        break;
      case 2:
        cache.clear_dirty(7, seg);
        for (std::uint64_t b = seg.offset; b < seg.end(); ++b)
          if (model.count(b)) model[b].second = false;
        break;
    }
    // Probe a few random ranges.
    for (int p = 0; p < 3; ++p) {
      const std::uint64_t po = rng.uniform(space - 100);
      const std::uint64_t pl = 1 + rng.uniform(99);
      bool model_covers = true;
      for (std::uint64_t b = po; b < po + pl; ++b)
        model_covers &= (model.count(b) && model[b].first);
      EXPECT_EQ(cache.covers(7, pfs::Segment{po, pl}), model_covers)
          << "step " << step << " probe [" << po << "," << po + pl << ")";
    }
  }
  // Dirty segments must exactly reproduce the model's dirty bytes.
  std::uint64_t model_dirty = 0;
  for (const auto& [b, vd] : model) model_dirty += vd.second;
  std::uint64_t cache_dirty = 0;
  for (const auto& seg : cache.dirty_segments(7)) cache_dirty += seg.length;
  EXPECT_EQ(cache_dirty, model_dirty);
}

TEST(FuzzLayout, DecomposeMatchesBruteForce) {
  sim::Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    pfs::StripeLayout layout;
    layout.unit_bytes = 1024u << rng.uniform(7);  // 1K..64K
    layout.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform(12));
    const std::uint64_t off = rng.uniform(1 << 22);
    const std::uint64_t len = 1 + rng.uniform(1 << 20);
    std::vector<std::vector<pfs::ServerRun>> per_server;
    pfs::decompose_segment(layout, pfs::Segment{off, len}, per_server);

    // Brute force byte-by-byte (sampled for speed: every 97th byte + ends).
    std::uint64_t total = 0;
    for (const auto& runs : per_server)
      for (const auto& r : runs) total += r.length;
    ASSERT_EQ(total, len);
    for (std::uint64_t probe = off; probe < off + len;
         probe += 97) {
      const std::uint32_t srv = layout.server_of(probe);
      const std::uint64_t local = layout.server_local_offset(probe);
      bool found = false;
      for (const auto& r : per_server[srv])
        found |= (local >= r.local_offset && local < r.local_offset + r.length);
      ASSERT_TRUE(found) << "byte " << probe << " missing on server " << srv;
    }
  }
}

TEST(FuzzLayout, ClosedFormMatchesReferenceAtScale) {
  // Beyond the power-of-two units and small server counts above: arbitrary
  // units (down to 1 byte) and up to 300 servers, closed form against the
  // frozen per-chunk loop (see also tests/test_layout_model.cpp).
  sim::Rng rng(0x5caff);
  for (int round = 0; round < 150; ++round) {
    pfs::StripeLayout layout;
    layout.unit_bytes = 1 + rng.uniform(100'000);
    layout.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform(299));
    const std::uint64_t span = layout.unit_bytes * layout.num_servers;
    const pfs::Segment seg{rng.uniform(span * 6), 1 + rng.uniform(span * 3)};
    std::vector<std::vector<pfs::ServerRun>> closed, ref;
    pfs::decompose_segment(layout, seg, closed);
    pfs::decompose_segment_reference(layout, seg, ref);
    ASSERT_EQ(closed, ref) << "unit=" << layout.unit_bytes
                           << " servers=" << layout.num_servers
                           << " off=" << seg.offset << " len=" << seg.length;
  }
}

TEST(FuzzEngine, RandomCancellationsNeverFireOrLoseEvents) {
  sim::Rng rng(7);
  sim::Engine eng;
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 2000; ++i)
    ids.push_back(eng.at(sim::usec(rng.uniform(100'000)), [&] { ++fired; }));
  int cancelled = 0;
  for (auto& id : ids)
    if (rng.chance(0.4)) cancelled += eng.cancel(id) ? 1 : 0;
  eng.run();
  EXPECT_EQ(fired, 2000 - cancelled);
  EXPECT_TRUE(eng.empty());
}

TEST(FuzzEngine, InterleavedScheduleRunKeepsMonotonicTime) {
  sim::Rng rng(8);
  sim::Engine eng;
  sim::Time last = -1;
  std::function<void()> check = [&] {
    EXPECT_GE(eng.now(), last);
    last = eng.now();
  };
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i)
      eng.at(eng.now() + static_cast<sim::Time>(rng.uniform(10'000)), check);
    eng.run(rng.uniform(15));
  }
  eng.run();
  EXPECT_TRUE(eng.empty());
}

class DiskModelSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DiskModelSweep, PhysicsInvariantsHold) {
  const auto [rpm, mbs] = GetParam();
  disk::DiskParams p;
  p.rpm = rpm;
  p.sustained_mb_s = mbs;
  disk::DiskModel m(p);
  sim::Rng rng(31);
  sim::Time prev_seek_cost = 0;
  // Reposition cost grows monotonically with distance and is bounded by a
  // full stroke plus one rotation.
  for (std::uint64_t frac = 1; frac <= 10; ++frac) {
    const std::uint64_t dist = p.capacity_sectors() * frac / 10;
    const sim::Time t = m.reposition_time(dist);
    EXPECT_GE(t, prev_seek_cost);
    prev_seek_cost = t;
    EXPECT_LE(t, sim::from_seconds(p.full_stroke_ms / 1e3) + p.full_rotation());
  }
  // Service time is always at least the pure transfer time.
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t lba = rng.uniform(p.capacity_sectors() - 1024);
    const std::uint32_t sectors = 8u << rng.uniform(6);
    const sim::Time t = m.service_time(lba, sectors);
    EXPECT_GE(t, sim::transfer_time(std::uint64_t{sectors} * disk::kSectorBytes,
                                    p.bytes_per_sec()));
    m.serve(lba, sectors);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drives, DiskModelSweep,
    ::testing::Combine(::testing::Values(5400.0, 7200.0, 15000.0),
                       ::testing::Values(60.0, 110.0, 200.0)),
    [](const ::testing::TestParamInfo<std::tuple<double, double>>& info) {
      return std::to_string(static_cast<int>(std::get<0>(info.param))) + "rpm_" +
             std::to_string(static_cast<int>(std::get<1>(info.param))) + "mbs";
    });

TEST(FuzzFaults, RandomTransientPlansNeverHangOrLeakRequests) {
  // Randomized transient fault plans (rates kept below the level where
  // permanent failure is possible): every run must complete all jobs, leave
  // no in-flight client requests, and drain the event queue. Testbed::run
  // itself throws if the queue drains with jobs unfinished, and an internal
  // event cap turns a livelock into a loud failure instead of a hang.
  sim::Rng rng(0xfa57);
  for (int round = 0; round < 8; ++round) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 2 + static_cast<std::uint32_t>(rng.uniform(2));
    cfg.compute_nodes = 1 + static_cast<std::uint32_t>(rng.uniform(1));
    cfg.cores_per_node = 8;
    cfg.keep_traces = false;
    cfg.fault.seed = rng.uniform(UINT32_MAX);
    cfg.fault.disk.media_error_rate = 0.05 * rng.chance(0.5);
    cfg.fault.disk.stall_rate = 0.1 * rng.chance(0.5);
    cfg.fault.net.drop_rate = 0.02 + 0.04 * rng.chance(0.5);
    cfg.fault.net.delay_rate = 0.1 * rng.chance(0.5);
    cfg.fault.server.stall_rate = 0.05 * rng.chance(0.5);
    harness::Testbed tb(cfg);
    wl::DemoConfig dc;
    dc.file = tb.create_file("f", 2 << 20);
    dc.file_size = 2 << 20;
    dc.segment_size = 32 * 1024;
    const bool dualpar = rng.chance(0.5);
    auto& job = dualpar
                    ? tb.add_job("j", 2, tb.dualpar(),
                                 [dc](std::uint32_t) { return wl::make_demo(dc); },
                                 dualpar::Policy::kForcedDataDriven)
                    : tb.add_job("j", 2, tb.vanilla(),
                                 [dc](std::uint32_t) { return wl::make_demo(dc); },
                                 dualpar::Policy::kForcedNormal);
    ASSERT_NO_THROW(tb.run(50'000'000)) << "round " << round;
    EXPECT_TRUE(job.finished()) << "round " << round;
    EXPECT_TRUE(tb.engine().empty()) << "round " << round;
    const auto c = tb.fault_injector()->counters();
    EXPECT_EQ(c.client_ops_started, c.client_ops_finished)
        << "round " << round << ": leaked in-flight requests";
  }
}

TEST(FuzzStripeShare, SharesAlwaysSumToFileSize) {
  sim::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    pfs::StripeLayout l;
    l.unit_bytes = 512u << rng.uniform(10);
    l.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform(16));
    const std::uint64_t size = rng.uniform(1ull << 32);
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < l.num_servers; ++s)
      total += l.server_share(s, size);
    ASSERT_EQ(total, size);
  }
}

}  // namespace
}  // namespace dpar
