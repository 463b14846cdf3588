// Focused tests of driver edge cases: Strategy-2 internals, DualPar
// normal-mode consistency, ghost forking at barriers, vanilla piecewise
// issuance, and network determinism.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "harness/testbed.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

harness::TestbedConfig small_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

TEST(PreexecDetails, WindowNeverExceedsQuotaByMuch) {
  harness::TestbedConfig cfg = small_config();
  cfg.dualpar.cache_quota = 256 * 1024;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 8 << 20);
  dc.file_size = 8 << 20;
  dc.segment_size = 16 * 1024;
  auto& job = tb.add_job("s2", 1, tb.preexec(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  // Total prefetch volume is bounded by the data actually consumed plus at
  // most one window of overshoot per process.
  const auto& st = tb.preexec().stats();
  EXPECT_LE(st.prefetch_issued_bytes, (8u << 20) + 512 * 1024);
}

TEST(PreexecDetails, MispredictedStreamFallsBackToDirectReads) {
  harness::Testbed tb(small_config());
  wl::DependentConfig dc;
  dc.file_size = 16 << 20;
  dc.file = tb.create_file("f", dc.file_size);
  dc.request_size = 64 * 1024;
  dc.requests = 30;
  auto& job = tb.add_job("s2", 1, tb.preexec(),
                         [dc](std::uint32_t) { return wl::make_dependent(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_bytes(), 30u * 64 * 1024);
  // Nearly every normal read had to fetch itself.
  EXPECT_GE(tb.preexec().stats().direct_misses, 25u);
}

TEST(PreexecDetails, StrategyTwoNeverDeadlocksOnTinyQuota) {
  harness::TestbedConfig cfg = small_config();
  cfg.dualpar.cache_quota = 16 * 1024;  // smaller than one call's data
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 2 << 20);
  dc.file_size = 2 << 20;
  dc.segment_size = 16 * 1024;  // one call = 16 segments = 256 KB > quota
  auto& job = tb.add_job("s2", 2, tb.preexec(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_bytes(), 2u << 20);
}

TEST(DualParDetails, NormalModeWriteSupersedesDirtyCache) {
  // A job latched back to normal mode must not later flush stale dirty data
  // over a write-through.
  harness::Testbed tb(small_config());
  auto& cache = tb.cache();
  const pfs::FileId f = tb.create_file("f", 1 << 20);
  // Simulate leftover dirty state from a data-driven phase.
  cache.write(f, pfs::Segment{0, 64 * 1024}, /*owner=*/42);
  ASSERT_EQ(cache.dirty_segments(f).size(), 1u);
  // A normal-mode write through the DualPar driver covers the same range.
  wl::DemoConfig dc;
  dc.file = f;
  dc.file_size = 64 * 1024;
  dc.segment_size = 64 * 1024;
  dc.segments_per_call = 1;
  dc.is_write = true;
  auto& job = tb.add_job("w", 1, tb.dualpar(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(cache.dirty_segments(f).empty());
}

TEST(DualParDetails, BarrierParkedProcessesGetGhosts) {
  // 2 ranks: rank 1 computes then barriers; rank 0 misses. The cycle must
  // include rank 1's future reads (its ghost is forked at the barrier).
  harness::Testbed tb(small_config());
  wl::MpiIoTestConfig mc;
  mc.file_size = 4 << 20;
  mc.file = tb.create_file("f", mc.file_size);
  mc.request_size = 16 * 1024;
  mc.barrier_every_call = true;
  auto& job = tb.add_job("m", 2, tb.dualpar(),
                         [mc](std::uint32_t) { return wl::make_mpi_io_test(mc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  const auto& st = tb.dualpar().stats();
  // More ghosts than cycles * 1: barrier-parked ranks were forked too.
  EXPECT_GE(st.ghost_forks, st.cycles * 2);
  // Both ranks' reads were prefetched: hit bytes dominate.
  EXPECT_GT(st.cache_hit_bytes, st.miss_direct_bytes);
}

TEST(DualParDetails, ConcurrentJobsKeepIndependentCycles) {
  harness::Testbed tb(small_config());
  wl::DemoConfig d1, d2;
  d1.file = tb.create_file("a", 4 << 20);
  d2.file = tb.create_file("b", 4 << 20);
  d1.file_size = d2.file_size = 4 << 20;
  d1.segment_size = d2.segment_size = 16 * 1024;
  auto& j1 = tb.add_job("a", 2, tb.dualpar(),
                        [d1](std::uint32_t) { return wl::make_demo(d1); },
                        dualpar::Policy::kForcedDataDriven);
  auto& j2 = tb.add_job("b", 2, tb.dualpar(),
                        [d2](std::uint32_t) { return wl::make_demo(d2); },
                        dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(j1.finished());
  EXPECT_TRUE(j2.finished());
  EXPECT_EQ(j1.total_bytes(), 4u << 20);
  EXPECT_EQ(j2.total_bytes(), 4u << 20);
}

TEST(DualParDetails, WriteHoldReleasesAfterWriteback) {
  harness::TestbedConfig cfg = small_config();
  cfg.dualpar.cache_quota = 128 * 1024;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 2 << 20);
  dc.file_size = 2 << 20;
  dc.segment_size = 64 * 1024;
  dc.segments_per_call = 1;  // 16 calls per rank -> several quota holds
  dc.is_write = true;
  auto& job = tb.add_job("w", 2, tb.dualpar(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  // Multiple write-back cycles were needed at this quota.
  EXPECT_GE(tb.dualpar().stats().cycles, 2u);
  EXPECT_TRUE(tb.cache().all_dirty_segments().empty());
}

TEST(VanillaDetails, PiecewiseIssuesOneRequestPerSegment) {
  harness::Testbed tb(small_config());
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 1 << 20);
  dc.file_size = 1 << 20;
  dc.segment_size = 4096;  // 16 pieces per call
  auto& job = tb.add_job("v", 1, tb.vanilla(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  std::uint64_t server_requests = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    server_requests += tb.server(s).requests_handled();
  // One server request per 4 KB piece (no batching for independent I/O).
  EXPECT_GE(server_requests, (1u << 20) / 4096);
}

TEST(VanillaDetails, ListIoBatchingCanBeRestored) {
  harness::Testbed tb(small_config());
  tb.vanilla().set_piecewise_strided(false);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 1 << 20);
  dc.file_size = 1 << 20;
  dc.segment_size = 4096;
  auto& job = tb.add_job("v", 1, tb.vanilla(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  // With list I/O the client merges adjacent runs; far fewer server messages.
  EXPECT_LT(tb.network().messages_sent(), 2000u);
}

TEST(NetworkDetails, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 2;
    cfg.compute_nodes = 2;
    cfg.net.seed = seed;
    harness::Testbed tb(cfg);
    wl::DemoConfig dc;
    dc.file = tb.create_file("f", 2 << 20);
    dc.file_size = 2 << 20;
    dc.segment_size = 16 * 1024;
    auto& job = tb.add_job("j", 2, tb.vanilla(),
                           [dc](std::uint32_t) { return wl::make_demo(dc); },
                           dualpar::Policy::kForcedNormal);
    tb.run();
    return job.completion_time();
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // different seeds shuffle arrival order
}

TEST(TestbedDetails, RunThrowsOnUndrainableDeadlock) {
  // A job whose driver never completes I/O must be caught by the guard in
  // Testbed::run rather than silently reporting success.
  struct StuckDriver : mpi::IoDriver {
    void io(mpi::Process&, const mpi::IoCall&, sim::UniqueFunction) override {}
    std::string name() const override { return "stuck"; }
  };
  harness::Testbed tb(small_config());
  StuckDriver stuck;
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 1 << 20);
  dc.file_size = 64 * 1024;
  dc.segment_size = 4096;
  tb.add_job("j", 1, stuck, [dc](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  // Bounded event budget: the periodic EMC tick keeps the queue alive
  // forever, so the guard must fire at the cap and name it.
  try {
    tb.run(/*max_events=*/100'000);
    FAIL() << "a stuck job must not report success";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("event cap of 100000 reached"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at simulated time"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 of 1 jobs unfinished"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace dpar
