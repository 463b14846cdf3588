// Unit tests for the EMC daemon: metric plumbing, threshold decisions,
// confirmation/dwell damping, mis-prefetch latching, policies.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "dualpar/emc.hpp"
#include "harness/testbed.hpp"
#include "reqdist_reference.hpp"
#include "wl/workloads.hpp"

namespace dpar::dualpar {
namespace {

struct EmcFixture : ::testing::Test {
  harness::TestbedConfig cfg;
  std::unique_ptr<harness::Testbed> tb;
  mpi::Job* job = nullptr;

  void SetUp() override {
    cfg.data_servers = 2;
    cfg.compute_nodes = 2;
    cfg.dualpar.emc_confirm_slots = 1;  // immediate decisions for unit tests
    cfg.dualpar.emc_min_dwell = 0;
    tb = std::make_unique<harness::Testbed>(cfg);
    // An instantly-terminating job to hang decisions on: it issues no I/O of
    // its own, so the fixtures fully control the observed request stream.
    wl::DemoConfig dc;
    dc.file = tb->create_file("f", 1 << 20);
    dc.file_size = 0;
    dc.segment_size = 4096;
    job = &tb->add_job("j", 1, tb->vanilla(),
                       [dc](std::uint32_t) { return wl::make_demo(dc); },
                       Policy::kAdaptive);
  }
};

TEST_F(EmcFixture, DefaultModeIsNormal) {
  EXPECT_EQ(tb->emc().mode(job->id()), Mode::kNormal);
  EXPECT_EQ(tb->emc().mode(9999), Mode::kNormal);  // unknown job
}

TEST_F(EmcFixture, ForcedPoliciesPinTheMode) {
  wl::DemoConfig dc;
  dc.file = tb->create_file("g", 1 << 20);
  dc.file_size = 64 * 1024;
  dc.segment_size = 4096;
  auto& forced = tb->add_job("forced", 1, tb->vanilla(),
                             [dc](std::uint32_t) { return wl::make_demo(dc); },
                             Policy::kForcedDataDriven);
  EXPECT_EQ(tb->emc().mode(forced.id()), Mode::kDataDriven);
  tb->emc().tick();
  EXPECT_EQ(tb->emc().mode(forced.id()), Mode::kDataDriven);
}

TEST_F(EmcFixture, MisprefetchLatchesAndReverts) {
  auto& emc = tb->emc();
  // Force data-driven via an adaptive entry by reporting a high ratio
  // directly against the latch.
  emc.report_misprefetch(job->id(), 0.9);
  EXPECT_TRUE(emc.latched_off(job->id()));
  EXPECT_EQ(emc.mode(job->id()), Mode::kNormal);
}

TEST_F(EmcFixture, LowMisprefetchDoesNotLatch) {
  tb->emc().report_misprefetch(job->id(), 0.05);
  tb->emc().report_misprefetch(job->id(), 0.10);
  EXPECT_FALSE(tb->emc().latched_off(job->id()));
}

TEST_F(EmcFixture, EwmaOfMisprefetchSmoothsSpikes) {
  // One high report after several clean rounds keeps the average below the
  // 20% threshold (alpha = 0.5).
  auto& emc = tb->emc();
  emc.report_misprefetch(job->id(), 0.0);
  emc.report_misprefetch(job->id(), 0.0);
  emc.report_misprefetch(job->id(), 0.3);
  EXPECT_FALSE(emc.latched_off(job->id()));
  emc.report_misprefetch(job->id(), 0.9);
  EXPECT_TRUE(emc.latched_off(job->id()));
}

TEST_F(EmcFixture, ObservationsFeedReqDist) {
  auto& emc = tb->emc();
  std::vector<pfs::Segment> segs;
  for (int i = 0; i < 8; ++i)
    segs.push_back(pfs::Segment{static_cast<std::uint64_t>(i) * 32768, 16384});
  emc.observe(job->id(), 1, segs, tb->engine().now());
  tb->engine().run_until(sim::msec(600));
  emc.tick();
  EXPECT_DOUBLE_EQ(emc.last_req_dist_bytes(), 32768.0);
}

TEST_F(EmcFixture, ObservationsForUnknownJobsIgnored) {
  tb->emc().observe(424242, 1, {pfs::Segment{0, 4096}}, 0);
  tb->engine().run_until(sim::msec(600));
  tb->emc().tick();
  EXPECT_DOUBLE_EQ(tb->emc().last_req_dist_bytes(), 0.0);
}

/// Completes every call at once; only the job's identity matters here.
struct NullDriver : mpi::IoDriver {
  void io(mpi::Process&, const mpi::IoCall&, sim::UniqueFunction done) override {
    done();
  }
  std::string name() const override { return "null"; }
};

TEST(EmcReqDist, ShardedSplitObservationsMatchOneCallAndTheSortedFormula) {
  // ReqDist folds each observe() into per-(job, file) offset extremes and
  // counts. Splitting the same requests into shards observed by many
  // interleaved calls must give the same bits as one call per (job, file),
  // and as the sort-then-sum formula averaged the way tick() averages it
  // (per job over files, then over jobs).
  constexpr std::uint32_t kJobs = 2;
  constexpr pfs::FileId kFiles = 3;
  sim::Rng rng(0xd157);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::vector<std::vector<pfs::Segment>>> obs(
        kJobs, std::vector<std::vector<pfs::Segment>>(kFiles));
    for (auto& job : obs)
      for (auto& file : job) file = reference::random_multiset(rng);

    double req_sum = 0.0;
    std::uint32_t req_n = 0;
    for (const auto& job : obs) {
      double job_sum = 0.0;
      std::uint32_t job_n = 0;
      for (const auto& file : job) {
        if (file.size() < 2) continue;
        job_sum += reference::mean_adjacent_distance(file);
        ++job_n;
      }
      if (job_n > 0) {
        req_sum += job_sum / job_n;
        ++req_n;
      }
    }
    const double want = req_n ? req_sum / req_n : 0.0;

    NullDriver drv;
    sim::Engine one_eng;
    mpi::Job one_a(one_eng, 0, "a", drv), one_b(one_eng, 1, "b", drv);
    Emc one(one_eng, Params{}, {});
    one.register_job(one_a, Policy::kAdaptive);
    one.register_job(one_b, Policy::kAdaptive);
    for (std::uint32_t j = 0; j < kJobs; ++j)
      for (pfs::FileId f = 0; f < kFiles; ++f) one.observe(j, f, obs[j][f], 0);
    one.tick();

    sim::Engine eng;
    mpi::Job a(eng, 0, "a", drv), b(eng, 1, "b", drv);
    Emc sharded(eng, Params{}, {});
    sharded.register_job(a, Policy::kAdaptive);
    sharded.register_job(b, Policy::kAdaptive);
    for (std::uint32_t j = 0; j < kJobs; ++j) {
      for (pfs::FileId f = 0; f < kFiles; ++f) {
        const auto& all = obs[j][f];
        for (std::size_t i = 0; i < all.size();) {
          const std::size_t n = std::min<std::size_t>(all.size() - i, 1 + rng.uniform(6));
          std::vector<pfs::Segment> chunk(all.begin() + i, all.begin() + i + n);
          i += n;
          eng.at(sim::usec(rng.uniform(200)), [&sharded, j, f, chunk = std::move(chunk)] {
            sharded.observe(j, f, chunk, 0);
          });
        }
      }
    }
    eng.run();
    sharded.tick();

    ASSERT_EQ(std::bit_cast<std::uint64_t>(one.last_req_dist_bytes()),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sharded.last_req_dist_bytes()),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial;
  }
}

TEST(EmcDamping, ConfirmSlotsPreventSingleSlotFlips) {
  // End-to-end: two interfering strided jobs under adaptive policy with the
  // default damping must switch a small number of times, not per-slot.
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  const std::uint64_t fsize = 48 << 20;
  wl::DemoConfig d1, d2;
  d1.file = tb.create_file("a", fsize);
  d2.file = tb.create_file("b", fsize);
  d1.file_size = d2.file_size = fsize;
  d1.segment_size = d2.segment_size = 16 * 1024;
  tb.add_job("a", 2, tb.dualpar(), [&](std::uint32_t) { return wl::make_demo(d1); },
             Policy::kAdaptive);
  tb.add_job("b", 2, tb.dualpar(), [&](std::uint32_t) { return wl::make_demo(d2); },
             Policy::kAdaptive);
  tb.run();
  EXPECT_GT(tb.emc().mode_switches(), 0u);
  EXPECT_LE(tb.emc().mode_switches(), 8u);  // damped, not flapping
}

TEST(EmcAdaptive, SoloSequentialJobStaysNormal) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  wl::MpiIoTestConfig mc;
  mc.file_size = 32 << 20;
  mc.file = tb.create_file("f", mc.file_size);
  mc.request_size = 16 * 1024;
  auto& job = tb.add_job("solo", 4, tb.dualpar(),
                         [mc](std::uint32_t) { return wl::make_mpi_io_test(mc); },
                         Policy::kAdaptive);
  tb.run();
  EXPECT_TRUE(job.finished());
  // A lone sequential program never justifies the data-driven mode.
  EXPECT_EQ(tb.emc().mode_switches(), 0u);
  EXPECT_EQ(tb.dualpar().stats().cycles, 0u);
}

TEST(EmcAdaptive, LowIoRatioBlocksDataDrivenModeDespiteBadSeeks) {
  // Two interfering strided jobs, but compute-dominated (I/O ratio << 80%):
  // the second EMC condition must keep both in computation-driven mode.
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  const std::uint64_t fsize = 8 << 20;
  wl::DemoConfig d1, d2;
  d1.file = tb.create_file("a", fsize);
  d2.file = tb.create_file("b", fsize);
  d1.file_size = d2.file_size = fsize;
  d1.segment_size = d2.segment_size = 16 * 1024;
  d1.compute_per_call = d2.compute_per_call = sim::msec(200);  // ~compute-bound
  auto& j1 = tb.add_job("a", 2, tb.dualpar(),
                        [&](std::uint32_t) { return wl::make_demo(d1); },
                        Policy::kAdaptive);
  auto& j2 = tb.add_job("b", 2, tb.dualpar(),
                        [&](std::uint32_t) { return wl::make_demo(d2); },
                        Policy::kAdaptive);
  tb.run();
  EXPECT_TRUE(j1.finished());
  EXPECT_TRUE(j2.finished());
  EXPECT_EQ(tb.dualpar().stats().cycles, 0u);
  EXPECT_EQ(tb.emc().mode_switches(), 0u);
}

TEST(EmcSeries, SeekSeriesIsRecordedPerSlot) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 16 << 20);
  dc.file_size = 16 << 20;
  dc.segment_size = 16 * 1024;
  tb.add_job("j", 2, tb.vanilla(), [dc](std::uint32_t) { return wl::make_demo(dc); },
             Policy::kAdaptive);
  tb.run();
  EXPECT_GE(tb.emc().seek_series().points.size(), 1u);
}

}  // namespace
}  // namespace dpar::dualpar
